/**
 * @file
 * Fig. 14: DRAM bandwidth congestion (Intel criterion: demand above
 * 70% of what the memory controller can serve). RM2's 32 tables x
 * 120 lookups make it the congested outlier.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 14", "DRAM bandwidth congestion (Broadwell)");

    SweepCache sweep(allPlatforms());

    TextTable table({"model", "batch", "DRAM demand GB/s",
                     "congested cycles", "BW-stall share"});
    const DramModel dram(broadwellConfig().dramGBs,
                         broadwellConfig().dramLatencyCycles,
                         broadwellConfig().freqGHz);
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2, ModelId::kDIN,
                       ModelId::kDIEN}) {
        for (int64_t batch : {64LL, 1024LL, 4096LL}) {
            const RunResult& r = sweep.get(id, kBdw, batch);
            const double demand =
                dram.demandGBs(r.counters.dramBytes, r.counters.cycles);
            table.addRow(
                {modelName(id), std::to_string(batch),
                 TextTable::fmt(demand, 1),
                 TextTable::fmtPercent(r.topdown.dramCongestedFraction),
                 TextTable::fmtPercent(r.topdown.l2.memDramBandwidth)});
        }
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto congestion = [&](ModelId id, int64_t b) {
        return sweep.get(id, kBdw, b).topdown.dramCongestedFraction;
    };
    check(congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kRM1, 4096),
          "RM2 suffers more DRAM bandwidth congestion than RM1 "
          "(32x120 vs 8x80 lookups)");
    check(congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kDIEN, 4096) &&
          congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kDIN, 4096),
          "RM2 is the congestion outlier among RM1/RM2/DIN/DIEN");
    check(congestion(ModelId::kRM2, 4096) >= congestion(ModelId::kRM2, 64),
          "congestion grows with batch size (more concurrent lookups)");
    return recstack::bench::exitStatus();
}
