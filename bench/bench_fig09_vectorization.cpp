/**
 * @file
 * Fig. 9: instruction vectorization — AVX share of retired
 * instructions on Broadwell (AVX-2) and Cascade Lake (AVX-512), plus
 * the execution-time reduction that comes with the narrower AVX-512
 * instruction footprint.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 9", "AVX fraction of retired instructions");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    TextTable table({"model", "BDW AVX%", "CLX AVX%", "BDW time",
                     "CLX time"});
    for (ModelId id : allModels()) {
        const RunResult& bdw = sweep.get(id, kBdw, batch);
        const RunResult& clx = sweep.get(id, kClx, batch);
        table.addRow({modelName(id),
                      TextTable::fmtPercent(bdw.topdown.avxFraction),
                      TextTable::fmtPercent(clx.topdown.avxFraction),
                      TextTable::fmtSeconds(bdw.seconds),
                      TextTable::fmtSeconds(clx.seconds)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    bool fc_avx = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        fc_avx &= sweep.get(id, kBdw, batch).topdown.avxFraction > 0.60;
    }
    check(fc_avx, "RM3/WnD/MT-WnD: over 60% of retired instructions "
                  "are AVX on Broadwell");
    check(sweep.get(ModelId::kNCF, kBdw, batch).topdown.avxFraction <
              sweep.get(ModelId::kRM3, kBdw, batch).topdown.avxFraction -
                  0.2,
          "NCF (small FCs): well below the large-FC models' AVX share");
    bool clx_faster = true;
    for (ModelId id : allModels()) {
        const RunResult& bdw = sweep.get(id, kBdw, batch);
        const RunResult& clx = sweep.get(id, kClx, batch);
        clx_faster &= clx.seconds < bdw.seconds;
    }
    check(clx_faster, "Cascade Lake: shorter execution time despite "
                      "the reduced AVX instruction footprint");
    return recstack::bench::exitStatus();
}
