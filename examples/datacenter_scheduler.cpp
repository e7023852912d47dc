/**
 * @file
 * Datacenter scheduler demo: use the characterization results the way
 * DeepRecSys does — route recommendation queries to the optimal
 * platform and batch size under a latency SLA, and show how the
 * optimum flips between CPUs (tight tail budgets) and GPUs (loose
 * budgets / throughput serving).
 *
 * Usage: datacenter_scheduler [MODEL] [SLA_MS...]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "report/table.h"
#include "sched/query_scheduler.h"
#include "serve/serving_node.h"

using namespace recstack;

int
main(int argc, char** argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "WnD";
    const ModelId id = modelFromName(model_name);

    std::vector<double> slas_ms = {0.5, 1, 2, 5, 10, 25, 50, 100, 500};
    if (argc > 2) {
        slas_ms.clear();
        for (int i = 2; i < argc; ++i) {
            slas_ms.push_back(std::atof(argv[i]));
        }
    }

    SweepCache sweep(allPlatforms());
    QueryScheduler sched(&sweep);

    std::printf("Heterogeneity-aware serving for %s (%s)\n\n",
                modelName(id), modelDomain(id));

    TextTable table({"SLA", "best platform", "batch", "latency",
                     "throughput", "CPU-only throughput",
                     "gain vs CPU-only"});
    for (double sla_ms : slas_ms) {
        const double sla = sla_ms * 1e-3;
        const ThroughputPoint best = sched.bestThroughputUnderSla(id, sla);

        // CPU-only baseline: best of the two CPUs.
        ThroughputPoint cpu_best;
        for (size_t p = 0; p < sweep.platforms().size(); ++p) {
            if (sweep.platforms()[p].kind != PlatformKind::kCpu) {
                continue;
            }
            for (int64_t b : sched.batchGrid()) {
                const double lat = sched.latency(id, p, b);
                if (lat > sla) {
                    continue;
                }
                const double qps = static_cast<double>(b) / lat;
                if (!cpu_best.feasible ||
                    qps > cpu_best.samplesPerSecond) {
                    cpu_best = {p, b, lat, qps, true};
                }
            }
        }

        if (!best.feasible) {
            table.addRow({TextTable::fmt(sla_ms, 1) + "ms",
                          "(infeasible)", "-", "-", "-", "-", "-"});
            continue;
        }
        const double gain =
            cpu_best.feasible
                ? best.samplesPerSecond / cpu_best.samplesPerSecond
                : 0.0;
        table.addRow(
            {TextTable::fmt(sla_ms, 1) + "ms",
             sweep.platforms()[best.platformIdx].name(),
             std::to_string(best.batch),
             TextTable::fmtSeconds(best.latencySeconds),
             TextTable::fmt(best.samplesPerSecond, 0) + " samp/s",
             cpu_best.feasible
                 ? TextTable::fmt(cpu_best.samplesPerSecond, 0) +
                       " samp/s"
                 : "-",
             cpu_best.feasible ? TextTable::fmtSpeedup(gain) : "-"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading: tight SLAs force small batches where CPUs win "
        "(Fig. 5 left);\nloose SLAs allow large batches where the "
        "accelerators dominate (Fig. 5 right).\n");

    // Fleet sizing: run the multi-worker serving engine on Broadwell
    // (platform 0) at ~3x one worker's capacity and watch how far
    // extra co-located workers actually carry it once shared-L3/DRAM
    // contention prices in.
    const size_t cpu_idx = 0;
    const int64_t fleet_batch = 256;
    const double cap1 =
        static_cast<double>(fleet_batch) /
        sched.latency(id, cpu_idx, fleet_batch);
    std::printf("\nFleet sizing on %s at %.0f samples/s offered:\n\n",
                sweep.platforms()[cpu_idx].name().c_str(), 3.0 * cap1);
    TextTable fleet({"workers", "agg throughput", "p99", "util",
                     "mean slowdown"});
    ServingNode engine(&sched, id, cpu_idx);
    for (int workers : {1, 2, 4, 8}) {
        EngineConfig cfg;
        cfg.numWorkers = workers;
        cfg.arrivalQps = 3.0 * cap1;
        cfg.maxBatch = fleet_batch;
        cfg.maxWaitSeconds = 1e-3;
        cfg.simSeconds = 0.1;
        const EngineResult r = engine.run(cfg);
        fleet.addRow({std::to_string(workers),
                      TextTable::fmt(r.aggregate.throughputQps, 0) +
                          " samp/s",
                      TextTable::fmtSeconds(r.aggregate.p99Latency),
                      TextTable::fmtPercent(r.aggregate.utilization),
                      TextTable::fmt(r.meanSlowdown, 2) + "x"});
    }
    std::printf("%s\n", fleet.render().c_str());
    std::printf(
        "Reading: workers beyond the DRAM-bandwidth knee add little "
        "throughput\nwhile inflating every worker's latency — "
        "embedding-dominated models hit\nthe knee first (the paper's "
        "near-memory-processing motivation).\n");
    return 0;
}
