/**
 * @file
 * Fig. 15: branch mispredicts drop significantly from Broadwell to
 * Cascade Lake (larger predictor, cheaper redirects).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 15", "Branch mispredicts, BDW vs CLX (batch 16)");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    TextTable table({"model", "BDW mispredicts (K)", "CLX mispredicts (K)",
                     "reduction"});
    for (ModelId id : allModels()) {
        const double bdw = static_cast<double>(
            sweep.get(id, kBdw, batch).counters.branchMispredicts);
        const double clx = static_cast<double>(
            sweep.get(id, kClx, batch).counters.branchMispredicts);
        table.addRow({modelName(id), TextTable::fmt(bdw / 1e3, 1),
                      TextTable::fmt(clx / 1e3, 1),
                      bdw > 0.0 ? TextTable::fmtPercent(1.0 - clx / bdw)
                                : "-"});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    bool all_drop = true;
    double avg_drop = 0.0;
    int n = 0;
    for (ModelId id : allModels()) {
        const double bdw = static_cast<double>(
            sweep.get(id, kBdw, batch).counters.branchMispredicts);
        const double clx = static_cast<double>(
            sweep.get(id, kClx, batch).counters.branchMispredicts);
        all_drop &= clx <= bdw * 1.02;
        if (bdw > 0.0) {
            avg_drop += 1.0 - clx / bdw;
            ++n;
        }
    }
    check(all_drop, "mispredicts decrease from BDW to CLX for every "
                    "model");
    check(n > 0 && avg_drop / n > 0.15,
          "the decrease is significant (paper: 'decrease "
          "significantly')");
    auto bdw_rate = [&](ModelId id) {
        return sweep.get(id, kBdw, batch).topdown.mispredictsPerKuop;
    };
    check(bdw_rate(ModelId::kRM1) > bdw_rate(ModelId::kRM3),
          "data-dependent embedding segment loops (RM1) mispredict "
          "more than GEMM loops (RM3)");
    return recstack::bench::exitStatus();
}
