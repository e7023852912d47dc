/**
 * @file
 * serve-small: ServingNode::run on RM1 in kNumericOnly with maxBatch
 * 16, a fixed Poisson arrival stream drawn from the seed, one worker
 * and the default shared EmbeddingStore (DRAM tiers). Each request is
 * one node run over the same stream; its virtual-time ServingStats
 * must repeat exactly and serve every sample that arrived.
 *
 * The gated runs use intra-op width 1. At width 2 a node run on a
 * shared 4-vCPU host takes about twice as long and its time swings
 * with how fast an idle vCPU wakes up, so the width-2 pool is measured
 * only in the traced run (pool.* metrics).
 */

#include <memory>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "platform/platform.h"
#include "sched/query_scheduler.h"
#include "serve/serving_node.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace recstack;

constexpr ModelId kModel = ModelId::kRM1;
constexpr int64_t kMaxBatch = 16;

/** Everything a node needs, in construction order. */
struct Stack {
    explicit Stack(const ModelOptions& opts)
        : sweep(allPlatformsWithPim(), opts, 42),
          scheduler(&sweep, {1, 2, 4, 8, kMaxBatch}),
          node(&scheduler, kModel, 0)
    {
    }
    SweepCache sweep;
    QueryScheduler scheduler;
    ServingNode node;
};

/** The virtual-time fields, which must not depend on the host. */
bool
sameVirtualStats(const ServingStats& a, const ServingStats& b)
{
    return a.samplesArrived == b.samplesArrived &&
           a.samplesServed == b.samplesServed &&
           a.droppedSamples == b.droppedSamples &&
           a.batchesServed == b.batchesServed &&
           a.meanLatency == b.meanLatency && a.p50Latency == b.p50Latency &&
           a.p95Latency == b.p95Latency && a.p99Latency == b.p99Latency &&
           a.meanBatch == b.meanBatch && a.utilization == b.utilization &&
           a.offeredLoad == b.offeredLoad &&
           a.throughputQps == b.throughputQps;
}

}  // namespace

void
runServeSmall(const Options& opts, Report& report)
{
    ModelOptions modelOpts = opts.tiny ? tinyOptions() : ModelOptions{};
    if (!opts.tiny) {
        // The node builds its StoreBackedModel on every run; 1% of the
        // full RM1 tables (about 10 MB) keeps that a small share.
        modelOpts.tableScale = 0.01;
    }
    EngineConfig config;
    config.numWorkers = 1;
    config.arrivalQps = 20000.0;
    config.maxBatch = kMaxBatch;
    config.simSeconds = opts.tiny ? 0.01 : 0.1;
    config.seed = subSeed(opts.seed, 1);
    config.execMode = ExecMode::kNumericOnly;
    config.numThreads = 1;

    std::unique_ptr<Stack> stack;
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<Stack>(modelOpts);
        stack->sweep.characterizer().model(kModel);
        for (int64_t b : stack->scheduler.batchGrid()) {
            stack->scheduler.latency(kModel, 0, b);
        }
        setups.push_back(secondsSince(t0));
    }
    report.add("setup_s", median(setups), setups.size(),
               "SweepCache + scheduler + node + RM1 latency grid");

    // The first run compiles the net; its stats are the reference.
    const EngineResult first = stack->node.run(config);

    Tracer tracer;
    Samples plain, traced;
    std::map<std::string, uint64_t> counters;
    double execSeconds = 0.0;
    uint64_t lookups = 0, hits = 0;
    bool corruptPending = opts.corrupt;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

    const auto start = Clock::now();
    for (uint64_t k = 0; secondsSince(start) < opts.seconds; ++k) {
        const bool tracedRun = tracedTurn(opts, k);
        tracer.enable(tracedRun);
        Tracer::Scope reqSpan(tracer, "bench.request");
        if (tracedRun) {
            registry.reset();
        }
        report.attempt();
        EngineResult r;
        const auto t0 = Clock::now();
        try {
            Tracer::Scope runSpan(tracer, "serve.run");
            r = stack->node.run(config);
        } catch (const std::exception& e) {
            report.fail(std::string("serve-small: ") + e.what());
            continue;
        }
        const double wall = secondsSince(t0);
        if (corruptPending) {
            r.aggregate.p99Latency += 1.0;
            corruptPending = false;
        }
        if (!sameVirtualStats(r.aggregate, first.aggregate) ||
            r.aggregate.samplesServed != r.aggregate.samplesArrived) {
            report.fail("serve-small: virtual ServingStats differ "
                        "between repetitions or samples were lost");
        }
        (tracedRun ? traced : plain)
            .add(wall, static_cast<double>(r.aggregate.samplesServed), wall);
        if (tracedRun) {
            const obs::MetricsSnapshot snap = registry.snapshot();
            for (const char* name :
                 {"queue.batches", "queue.samples", "queue.launch_batch_full",
                  "queue.launch_window_expired", "queue.launch_drain"}) {
                const auto it = snap.counters.find(name);
                counters[name] += it != snap.counters.end() ? it->second : 0;
            }
            execSeconds += r.hostSeconds;
            lookups += r.storeStats.total.lookups;
            hits += r.storeStats.total.hits;
        }
    }
    addEndToEnd(report, plain, 0.8);

    const uint64_t tracedRuns = traced.items.size();
    if (!opts.trace || tracedRuns == 0) {
        return;
    }
    const double per = 1.0 / static_cast<double>(tracedRuns);
    report.add("graph.exec_s", execSeconds * per, tracedRuns,
               "EngineResult::hostSeconds per node run");
    double tracedWall = 0.0;
    for (double w : traced.timed) {
        tracedWall += w;
    }
    report.add("serve.outside_exec_share", 1.0 - execSeconds / tracedWall,
               tracedRuns, "node run wall outside Executor::run");
    for (const char* name :
         {"queue.batches", "queue.launch_batch_full",
          "queue.launch_window_expired", "queue.launch_drain"}) {
        report.add(name, static_cast<double>(counters[name]) * per,
                   tracedRuns, "per node run");
    }
    report.add("queue.mean_batch",
               counters["queue.batches"] > 0
                   ? static_cast<double>(counters["queue.samples"]) /
                         static_cast<double>(counters["queue.batches"])
                   : 0.0,
               counters["queue.batches"]);
    report.add("store.hit_rate",
               lookups > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               lookups);

    // The pool at width 2, probed apart from the gated runs: one node
    // run (its virtual stats must not move with the width), then
    // parallelFor calls with a trivial body.
    tracer.enable(true);
    {
        Tracer::Scope span(tracer, "bench.pool_probe");
        EngineConfig wide = config;
        wide.numThreads = 2;
        registry.reset();
        report.attempt();
        EngineResult r;
        {
            Tracer::Scope run(tracer, "serve.run");
            r = stack->node.run(wide);
        }
        if (!sameVirtualStats(r.aggregate, first.aggregate)) {
            report.fail("serve-small: virtual ServingStats depend on the "
                        "intra-op width");
        }
        const obs::MetricsSnapshot snap = registry.snapshot();
        for (const char* name : {"pool.parallel_for", "pool.chunks"}) {
            const auto it = snap.counters.find(name);
            report.add(name,
                       it != snap.counters.end()
                           ? static_cast<double>(it->second)
                           : 0.0,
                       1, "one node run at width 2");
        }

        IntraOpScope width(2);
        std::vector<int64_t> sink(2, 0);
        const RangeFn body = [&sink](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                sink[static_cast<size_t>(i)] += i + 1;
            }
        };
        std::vector<double> us;
        for (int i = 0; i < 2000; ++i) {
            Tracer::Scope call(tracer, "common.parallel_for");
            const auto t0 = Clock::now();
            parallelFor(0, 2, 1, body);
            us.push_back(1e6 * secondsSince(t0));
        }
        report.add("pool.dispatch_us", median(us), us.size(),
                   "median parallelFor(0, 2, grain 1) at width 2");
    }

    // Input synthesis of one RM1 batch of 16.
    {
        Tracer::Scope span(tracer, "bench.materialize_probe");
        const Model& model = stack->sweep.characterizer().model(kModel);
        BatchGenerator gen(model.workload, subSeed(opts.seed, 2));
        Workspace ws;
        std::vector<double> us;
        for (int i = 0; i < 300; ++i) {
            Tracer::Scope call(tracer, "workload.materialize");
            const auto t0 = Clock::now();
            gen.materialize(ws, kMaxBatch);
            us.push_back(1e6 * secondsSince(t0));
        }
        report.add("workload.materialize_us", median(us), us.size(),
                   "median BatchGenerator::materialize, RM1 batch 16");
    }

    addTraceLayers(report, tracer, plain, traced);
    std::string error;
    if (!tracer.writeChromeTrace(opts.runDir + "/serve-small-seed" +
                                     std::to_string(opts.seed) +
                                     ".trace.json",
                                 &error)) {
        report.fail("serve-small: trace export: " + error);
    }
}

}  // namespace perfbench
