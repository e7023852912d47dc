/**
 * @file
 * Extension: the DeepRecSys loop closed end to end. For each model,
 * serve the same Poisson stream three ways — CPU worker pool only,
 * GPU only, and the heterogeneous split (CPU workers + accelerator
 * lane, thresholds tuned online by the hill climber against the p99
 * SLA read from the live serve.query_latency_seconds histogram) — and
 * report the throughput-vs-p99 frontier. The paper's claim: exploiting
 * hardware heterogeneity by batch size "significantly improves
 * recommendation performance"; at an equal tail budget the
 * heterogeneous configuration must sustain at least the best
 * single-platform throughput, and the online tuner must land within
 * one grid step of the exhaustive-search threshold.
 */

#include <cmath>

#include "bench_util.h"
#include "sched/hill_climb.h"
#include "serve/serving_node.h"

using namespace recstack;
using namespace recstack::bench;

namespace {

constexpr int kWorkers = 2;
constexpr int64_t kMaxBatch = 256;
constexpr double kWindow = 1e-3;
constexpr double kSimSeconds = 0.1;

EngineConfig
baseConfig(double qps)
{
    EngineConfig cfg;
    cfg.numWorkers = kWorkers;
    cfg.arrivalQps = qps;
    cfg.maxBatch = kMaxBatch;
    cfg.maxWaitSeconds = kWindow;
    cfg.simSeconds = kSimSeconds;
    return cfg;
}

/** baseConfig plus the T4 lane of the heterogeneous split. */
EngineConfig
heteroConfig(double qps)
{
    EngineConfig cfg = baseConfig(qps);
    // Match the lane's accumulation to the front queue: the GPU's
    // service time is near-linear in batch beyond the grid's
    // amortization knee, so batching past the front queue's cap only
    // stretches the tail without buying throughput.
    AccelLaneConfig lane;
    lane.platformIdx = kT4;
    lane.maxBatch = kMaxBatch;
    lane.maxWaitSeconds = kWindow;
    cfg.lanes = {lane};
    return cfg;
}

/** One model's three serving configurations over a shared rate ladder. */
struct ModelStudy {
    ModelId model;
    double sla = 0.0;
    std::vector<double> ladder;
    /// Best served QPS whose run held p99 <= sla, per configuration.
    double cpuCapacity = 0.0;
    double gpuCapacity = 0.0;
    double heteroCapacity = 0.0;
    /// Per-rung tails for the saturation check.
    std::vector<double> cpuP99;
    std::vector<double> heteroP99;
    int64_t tunedThreshold = 0;
    int64_t exhaustiveBest = 0;
    int gridStepsApart = 0;
    int tunerEpochs = 0;
    int exhaustiveEpochs = 0;
};

/**
 * Capacity under the SLA = the highest offered rate whose run held
 * p99 within budget. (Offered rate, not served/horizon: every run
 * drains its whole stream, so served-over-horizon would penalize a
 * feasible run merely for draining its tail after the stream ends.)
 */
double
updateCapacity(const EngineResult& r, double rate, double sla,
               double* capacity)
{
    if (r.aggregate.p99Latency <= sla) {
        *capacity = std::max(*capacity, rate);
    }
    return r.aggregate.p99Latency;
}

ModelStudy
studyModel(QueryScheduler& sched, ModelId model)
{
    ModelStudy st;
    st.model = model;

    ServingNode cpu(&sched, model, kBdw);
    ServingNode gpu(&sched, model, kT4);
    ServingNode hetero(&sched, model, kBdw);

    // Per-platform single-server capacities from the characterization
    // grid anchor the rate ladder and the SLA probe.
    const double cap_cpu1 =
        static_cast<double>(kMaxBatch) /
        sched.latency(model, kBdw, kMaxBatch);
    const double cap_gpu1 =
        static_cast<double>(kMaxBatch) /
        sched.latency(model, kT4, kMaxBatch);
    const double combined = kWorkers * cap_cpu1 + cap_gpu1;

    // Equal-SLA budget for all three configurations: 3x the worse of
    // the two platforms' half-load tails, so each platform is feasible
    // somewhere on the ladder and the comparison is about capacity,
    // not about one side being priced out of its own regime.
    const EngineResult cpu_probe =
        cpu.run(baseConfig(0.5 * kWorkers * cap_cpu1));
    const EngineResult gpu_probe = gpu.run(baseConfig(0.5 * cap_gpu1));
    st.sla = 3.0 * std::max(cpu_probe.aggregate.p99Latency,
                            gpu_probe.aggregate.p99Latency);

    // Online tuning at a rate only the split can hold: the climber
    // walks the threshold grid reading its feedback from the metrics
    // histogram the engine records into (no offline sweep in the
    // loop). Exhaustive search over the same grid is the oracle.
    // The grid spans "route almost everything" (16) through the
    // overflow-valve point (256 == the front queue's batch cap: only
    // backlog-saturated batches defer, so the GPU absorbs exactly the
    // load the CPU pool sheds) to "route nothing".
    HillClimbConfig tune;
    tune.slaSeconds = st.sla;
    tune.thresholdGrid = {16, 64, 128, 256,
                          QueryScheduler::kNoThreshold};
    tune.startIndex = 2;
    tune.epochSeconds = kSimSeconds;
    const double tune_rate = 0.8 * combined;
    const EngineConfig hcfg = heteroConfig(tune_rate);
    const EpochFn epoch = [&](int64_t threshold) {
        sched.setThreshold(PlatformKind::kGpu, st.model, threshold);
        hetero.run(hcfg);
    };
    const HillClimbResult hc = hillClimbThreshold(tune, epoch);
    const HillClimbResult ex = exhaustiveThreshold(tune, epoch);
    st.tunedThreshold = hc.bestThreshold;
    st.exhaustiveBest = ex.bestThreshold;
    st.tunerEpochs = hc.epochs;
    st.exhaustiveEpochs = ex.epochs;
    const auto index_of = [&](int64_t t) {
        for (size_t i = 0; i < tune.thresholdGrid.size(); ++i) {
            if (tune.thresholdGrid[i] == t) {
                return static_cast<int>(i);
            }
        }
        return -1;
    };
    st.gridStepsApart =
        std::abs(index_of(hc.bestThreshold) - index_of(ex.bestThreshold));
    sched.setThreshold(PlatformKind::kGpu, model, st.tunedThreshold);

    // The frontier: one shared rate ladder, three configurations.
    st.ladder = {0.2 * combined, 0.4 * combined, 0.6 * combined,
                 0.8 * combined, 1.0 * combined, 1.2 * combined,
                 1.4 * combined, 1.6 * combined};
    TextTable table({"offered qps", "CPU-only p99", "GPU-only p99",
                     "hetero p99", "gpu share", "SLA ok"});
    for (double rate : st.ladder) {
        const EngineResult rc = cpu.run(baseConfig(rate));
        const EngineResult rg = gpu.run(baseConfig(rate));
        const EngineResult rh = hetero.run(heteroConfig(rate));

        const double pc =
            updateCapacity(rc, rate, st.sla, &st.cpuCapacity);
        const double pg =
            updateCapacity(rg, rate, st.sla, &st.gpuCapacity);
        const double ph =
            updateCapacity(rh, rate, st.sla, &st.heteroCapacity);
        st.cpuP99.push_back(pc);
        st.heteroP99.push_back(ph);
        const double share =
            rh.aggregate.samplesServed > 0
                ? static_cast<double>(rh.lanes.front().stats.samplesServed) /
                      static_cast<double>(rh.aggregate.samplesServed)
                : 0.0;
        std::string ok;
        ok += pc <= st.sla ? 'C' : '-';
        ok += pg <= st.sla ? 'G' : '-';
        ok += ph <= st.sla ? 'H' : '-';
        table.addRow({TextTable::fmt(rate, 0),
                      TextTable::fmtSeconds(pc),
                      TextTable::fmtSeconds(pg),
                      TextTable::fmtSeconds(ph),
                      TextTable::fmtPercent(share), ok});
    }

    std::printf("\n%s  (SLA p99 <= %s, tuned threshold %s)\n",
                modelName(model),
                TextTable::fmtSeconds(st.sla).c_str(),
                st.tunedThreshold == QueryScheduler::kNoThreshold
                    ? "none"
                    : std::to_string(st.tunedThreshold).c_str());
    std::printf("%s", table.render().c_str());
    std::printf("  capacity at SLA: CPU-only %s  GPU-only %s  "
                "heterogeneous %s qps\n",
                TextTable::fmt(st.cpuCapacity, 0).c_str(),
                TextTable::fmt(st.gpuCapacity, 0).c_str(),
                TextTable::fmt(st.heteroCapacity, 0).c_str());
    return st;
}

}  // namespace

int
main()
{
    banner("Extension",
           "Heterogeneous serving: SLA-aware CPU/GPU split with "
           "online hill-climbed thresholds (RM1 / RM2 / DIEN)");

    SweepCache sweep(allPlatforms());
    QueryScheduler sched(&sweep, {1, 16, 256, 1024});

    std::vector<ModelStudy> studies;
    for (ModelId model :
         {ModelId::kRM1, ModelId::kRM2, ModelId::kDIEN}) {
        studies.push_back(studyModel(sched, model));
    }

    checkHeader();
    for (const ModelStudy& st : studies) {
        const double best_single =
            std::max(st.cpuCapacity, st.gpuCapacity);
        check(st.heteroCapacity >= 0.999 * best_single,
              std::string(modelName(st.model)) +
                  ": heterogeneous serving sustains at least the best "
                  "single-platform throughput at the same p99 SLA (x" +
                  std::string(TextTable::fmt(
                      best_single > 0.0
                          ? st.heteroCapacity / best_single
                          : 1.0,
                      2)) +
                  ")");
        check(st.gridStepsApart <= 1,
              std::string(modelName(st.model)) +
                  ": the online hill climber lands within one grid "
                  "step of the exhaustive-search threshold");
        check(st.tunerEpochs <= st.exhaustiveEpochs,
              std::string(modelName(st.model)) +
                  ": tuning converged in at most as many epochs as "
                  "the exhaustive sweep (" +
                  std::to_string(st.tunerEpochs) + " vs " +
                  std::to_string(st.exhaustiveEpochs) + ")");
        // Rung 3 = 0.8x the combined-capacity estimate: past the CPU
        // pool's knee, where offloading must relieve the CPU tail.
        check(st.heteroP99[3] < st.cpuP99[3],
              std::string(modelName(st.model)) +
                  ": past the CPU pool's saturation knee the split "
                  "relieves the CPU-only tail (" +
                  TextTable::fmtSeconds(st.heteroP99[3]) + " vs " +
                  TextTable::fmtSeconds(st.cpuP99[3]) + " p99)");
    }
    return recstack::bench::exitStatus();
}
