/**
 * @file
 * Ablation: DSB capacity sensitivity of the frontend-bandwidth-bound
 * models (RM1/RM2). DESIGN.md calls this out because the paper's
 * Fig. 13 mechanism (mispredict-driven DSB thrash) should fade as the
 * decoded-uop cache grows and the refill window shrinks.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Ablation", "DSB capacity sensitivity (RM1/RM2, batch 16)");

    TextTable table({"DSB capacity (uops)", "RM1 DSB-limited",
                     "RM1 latency", "RM2 DSB-limited", "RM2 latency"});

    std::vector<double> rm1_dsb;
    for (uint64_t capacity : {256ull, 768ull, 1536ull, 4096ull,
                              16384ull}) {
        CpuConfig cfg = broadwellConfig();
        cfg.dsbCapacityUops = capacity;
        SweepCache sweep({makeCpuPlatform(cfg)});
        const RunResult& rm1 = sweep.get(ModelId::kRM1, 0, 16);
        const RunResult& rm2 = sweep.get(ModelId::kRM2, 0, 16);
        rm1_dsb.push_back(rm1.topdown.l2.feBandwidthDsb);
        table.addRow({std::to_string(capacity),
                      TextTable::fmtPercent(
                          rm1.topdown.l2.feBandwidthDsb),
                      TextTable::fmtSeconds(rm1.seconds),
                      TextTable::fmtPercent(
                          rm2.topdown.l2.feBandwidthDsb),
                      TextTable::fmtSeconds(rm2.seconds)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(rm1_dsb.front() >= rm1_dsb.back(),
          "shrinking the DSB never reduces (and growing never "
          "increases) the DSB-limited cycle share");
    check(rm1_dsb.back() < 0.10,
          "a very large DSB leaves only the mispredict-refill "
          "component");
    return recstack::bench::exitStatus();
}
