/**
 * @file
 * Ablation: hardware-prefetcher effectiveness. The paper's regular
 * (FC) vs irregular (embedding) split rests on prefetchers hiding
 * sequential miss latency while gathers stay exposed; this sweep
 * disables/overdrives that coverage and shows which models care.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Ablation",
           "Prefetcher coverage of sequential misses (batch 256)");

    TextTable table({"seq exposure", "RM3 latency", "RM3 mem-bound",
                     "RM2 latency", "RM2 mem-bound"});
    std::vector<double> rm3_lat, rm2_lat;
    for (double exposure : {1.0, 0.5, 0.25, 0.12, 0.05}) {
        CpuConfig cfg = broadwellConfig();
        cfg.seqMissExposure = exposure;
        cfg.stridedMissExposure = std::min(1.0, exposure * 2.5);
        SweepCache sweep({makeCpuPlatform(cfg)});
        const RunResult& rm3 = sweep.get(ModelId::kRM3, 0, 256);
        const RunResult& rm2 = sweep.get(ModelId::kRM2, 0, 256);
        rm3_lat.push_back(rm3.seconds);
        rm2_lat.push_back(rm2.seconds);
        table.addRow({TextTable::fmt(exposure, 2),
                      TextTable::fmtSeconds(rm3.seconds),
                      TextTable::fmtPercent(rm3.topdown.l2.beMemory),
                      TextTable::fmtSeconds(rm2.seconds),
                      TextTable::fmtPercent(rm2.topdown.l2.beMemory)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(rm3_lat.front() > rm3_lat.back() * 1.1,
          "FC models stream weights: prefetch coverage speeds them up "
          "measurably");
    const double rm3_gain = rm3_lat.front() / rm3_lat.back();
    const double rm2_gain = rm2_lat.front() / rm2_lat.back();
    check(rm3_gain > rm2_gain,
          "embedding-dominated RM2 is nearly prefetch-insensitive "
          "(random gathers stay exposed) - the paper's "
          "irregular-access premise");
    return recstack::bench::exitStatus();
}
