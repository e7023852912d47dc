#include "serve/serving_node.h"

#include <algorithm>
#include <thread>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "models/store_binding.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/batch_queue.h"
#include "serve/contention.h"

namespace recstack {
namespace {

/// Per-query end-to-end latency in seconds: [0, 1) over 1000 buckets
/// gives 1 ms resolution, so histogram percentiles agree with the
/// exact percentileOfSorted path within 1 ms for sub-second tails
/// (cross-checked in tests/test_obs.cc).
obs::LatencyHistogram&
queryLatencyHistogram()
{
    static obs::LatencyHistogram& h =
        obs::MetricsRegistry::global().histogram(
            "serve.query_latency_seconds", 0.0, 1.0, 1000);
    return h;
}

obs::Counter&
queriesCounter()
{
    static obs::Counter& c =
        obs::MetricsRegistry::global().counter("serve.queries");
    return c;
}

/// Flip tracing on for one engine run, restoring the previous state
/// (env-driven or API-driven) on scope exit.
struct TraceCaptureScope {
    explicit TraceCaptureScope(bool capture)
        : restore_(obs::traceEnabled())
    {
        if (capture) {
            obs::setTraceEnabled(true);
        }
    }
    ~TraceCaptureScope() { obs::setTraceEnabled(restore_); }
    const bool restore_;
};

/** Stats a worker accumulates locally while it runs (no sharing). */
struct WorkerLocal {
    std::vector<double> latencies;
    double busySeconds = 0.0;
    double lastCompletion = 0.0;
    double hostSeconds = 0.0;
    double slowdownSum = 0.0;
    double slowdownMax = 1.0;
    uint64_t samplesServed = 0;
    uint64_t batchesServed = 0;
    /// Batches this worker serviced itself (slowdown factors summed
    /// over exactly these; == batchesServed in runs without lanes).
    uint64_t cpuServicedBatches = 0;
    /// Batches handed over to each configured lane.
    std::vector<uint64_t> deferredTickets;
};

/**
 * Stream over: flush the lane and fold its served queries into the
 * obs surface the workers feed (the hill-climbing tuner reads the p99
 * of this histogram, so both lanes tune against the same SLA).
 */
void
drainLane(AccelLane& lane)
{
    lane.drain();
    queriesCounter().add(lane.samplesServed());
    obs::LatencyHistogram& lat_hist = queryLatencyHistogram();
    for (double lat : lane.latencies()) {
        lat_hist.record(lat);
    }
}

/** A drained lane's own serving view over the node's horizon. */
ServingStats
laneStats(const AccelLane& lane, double horizon, double sim_seconds)
{
    ServingStats s;
    s.samplesArrived = lane.samplesServed();
    s.samplesServed = lane.samplesServed();
    s.batchesServed = lane.batchesServed();
    std::vector<double> latencies = lane.latencies();
    fillServingStats(latencies, lane.busySeconds(), 1.0, horizon,
                     sim_seconds, &s);
    return s;
}

}  // namespace

ServingNode::ServingNode(QueryScheduler* scheduler, ModelId model,
                         size_t platform_idx)
    : scheduler_(scheduler), model_(model), platformIdx_(platform_idx)
{
    RECSTACK_CHECK(scheduler_ != nullptr, "node needs a scheduler");
    RECSTACK_CHECK(platform_idx < scheduler_->sweep()->platforms().size(),
                   "platform index out of range");
}

std::shared_ptr<const CompiledNet>
ServingNode::compiled() const
{
    std::lock_guard<std::mutex> lock(compileMu_);
    return compiled_;
}

EngineResult
ServingNode::run(const EngineConfig& config)
{
    return runImpl(config, nullptr);
}

EngineResult
ServingNode::runTrace(const EngineConfig& config,
                      std::vector<double> arrivals)
{
    return runImpl(config, &arrivals);
}

EngineResult
ServingNode::runImpl(const EngineConfig& config,
                     std::vector<double>* trace)
{
    RECSTACK_CHECK(config.numWorkers >= 1, "need at least one worker");
    RECSTACK_CHECK(config.arrivalQps > 0.0, "arrival rate must be > 0");
    RECSTACK_CHECK(config.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(config.simSeconds > 0.0, "duration must be > 0");
    RECSTACK_CHECK(config.numThreads >= 0,
                   "intra-op thread count must be >= 0");
    RECSTACK_CHECK(config.remoteSecondsPerSample >= 0.0,
                   "remote surcharge must be >= 0");

    TraceCaptureScope trace_scope(config.captureTrace);
    RECSTACK_SPAN("engine.run",
                  {{"workers", config.numWorkers},
                   {"max_batch", config.maxBatch}});

    SweepCache* sweep = scheduler_->sweep();

    // Warm every shared lazily-built structure before threads exist:
    // the built model, its compiled form, the characterization grid
    // the latency oracle interpolates over, and the co-location
    // reference point. After this, workers touch the sweep only under
    // the queue lock.
    const Model& model = sweep->characterizer().model(model_);
    {
        // Compile once per node: workers (and later run() calls)
        // share the schedule and its per-batch memory plans, and only
        // bring their own Workspace + Arena.
        std::lock_guard<std::mutex> lock(compileMu_);
        if (compiled_ == nullptr) {
            compiled_ = CompiledNet::compile(model.net);
        }
    }
    CompiledNet& compiled = *compiled_;
    const std::vector<double> factors =
        nodeSlowdowns(scheduler_, model_, platformIdx_, config.maxBatch,
                      config.numWorkers, config.modelContention);

    // Accelerator lanes (docs/scheduling.md, docs/pim.md), each
    // prewarming its grid as it is built. A lane is only touched
    // under the queue lock (inside the ServiceFn) and after join
    // (drain), so it is single-threaded by construction.
    std::vector<std::unique_ptr<AccelLane>> lanes;
    for (const AccelLaneConfig& lane_cfg : config.lanes) {
        lanes.push_back(
            std::make_unique<AccelLane>(scheduler_, model_, lane_cfg));
    }

    // One parameter store for the whole node run: workers bind
    // against it instead of each materializing every table. Built
    // before the worker threads exist, like the compiled net.
    std::unique_ptr<StoreBackedModel> store_model;
    if (config.execMode != ExecMode::kProfileOnly) {
        store_model = std::make_unique<StoreBackedModel>(
            model, config.storeConfig);
    }

    BatchQueue::Config qcfg;
    qcfg.arrivalQps = config.arrivalQps;
    qcfg.maxBatch = config.maxBatch;
    qcfg.maxWaitSeconds = config.maxWaitSeconds;
    qcfg.horizonSeconds = config.simSeconds;
    qcfg.seed = config.seed;
    qcfg.numWorkers = config.numWorkers;
    if (trace != nullptr) {
        qcfg.useArrivalTrace = true;
        qcfg.arrivalTrace = std::move(*trace);
    }
    BatchQueue queue(qcfg);

    std::vector<WorkerLocal> locals(
        static_cast<size_t>(config.numWorkers));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(config.numWorkers));
    for (int wid = 0; wid < config.numWorkers; ++wid) {
        threads.emplace_back([&, wid] {
            WorkerLocal& local = locals[static_cast<size_t>(wid)];
            local.deferredTickets.assign(lanes.size(), 0);
            Workspace ws;
            Arena arena;
            BatchGenerator gen(
                model.workload,
                config.seed ^
                    (0x9e3779b97f4a7c15ull *
                     static_cast<uint64_t>(wid + 1)));
            if (config.execMode == ExecMode::kProfileOnly) {
                ws.setShapeOnly(true);
                model.declareParams(ws);
            } else {
                store_model->bind(ws);
            }

            // Invoked under the queue lock (the memoized sweep is not
            // thread-safe); prices this batch's virtual service time.
            // A batch at or above a lane's threshold hands over to the
            // first such lane here — still under the lock, in the
            // queue's strict virtual-time launch order (AccelLane's
            // determinism contract) — and costs the worker only the
            // dispatch.
            size_t deferred_to = lanes.size();  // == size: on the CPU
            const BatchQueue::ServiceFn service =
                [&](const BatchTicket& ticket, int busy) {
                    for (size_t i = 0; i < lanes.size(); ++i) {
                        AccelLane& lane = *lanes[i];
                        if (scheduler_->routesTo(lane.kind(), model_,
                                                 ticket.size())) {
                            lane.submit(ticket, ticket.launchTime);
                            deferred_to = i;
                            return lane.handoffSeconds();
                        }
                    }
                    deferred_to = lanes.size();
                    const BatchPrice price = priceBatch(
                        scheduler_, model_, platformIdx_, factors, busy,
                        ticket.size(), config.remoteSecondsPerSample);
                    local.slowdownSum += price.factor;
                    local.slowdownMax =
                        std::max(local.slowdownMax, price.factor);
                    return price.seconds;
                };

            BatchTicket ticket;
            double completion = 0.0;
            int busy = 0;
            obs::LatencyHistogram& lat_hist = queryLatencyHistogram();
            obs::Counter& queries = queriesCounter();
            while (queue.acquire(wid, service, &ticket, &completion,
                                 &busy)) {
                const int64_t batch = ticket.size();
                if (deferred_to < lanes.size()) {
                    // The samples belong to the lane now; the worker
                    // accounted only the hand-off and moves on.
                    local.busySeconds += completion - ticket.launchTime;
                    local.lastCompletion =
                        std::max(local.lastCompletion, completion);
                    ++local.deferredTickets[deferred_to];
                    continue;
                }
                // Real execution of the served net on this worker's
                // private workspace, outside the queue lock.
                RECSTACK_SPAN("engine.batch",
                              {{"worker", wid}, {"batch", batch}});
                if (config.execMode == ExecMode::kProfileOnly) {
                    gen.declare(ws, batch);
                } else {
                    gen.materialize(ws, batch);
                }
                ExecOptions exec_opts;
                exec_opts.mode = config.execMode;
                exec_opts.numThreads = config.numThreads;
                const NetExecResult exec = Executor::run(
                    compiled, ws, arena, batch, exec_opts);
                local.hostSeconds += exec.hostSeconds;

                local.busySeconds += completion - ticket.launchTime;
                local.lastCompletion =
                    std::max(local.lastCompletion, completion);
                local.samplesServed +=
                    static_cast<uint64_t>(batch);
                ++local.batchesServed;
                ++local.cpuServicedBatches;
                queries.add(static_cast<uint64_t>(batch));
                for (double arrival : ticket.arrivals) {
                    local.latencies.push_back(completion - arrival);
                    lat_hist.record(completion - arrival);
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    double horizon = config.simSeconds;
    for (const WorkerLocal& local : locals) {
        horizon = std::max(horizon, local.lastCompletion);
    }
    for (const std::unique_ptr<AccelLane>& lane : lanes) {
        drainLane(*lane);
        horizon = std::max(horizon, lane->lastCompletion());
        if (lane->kind() == PlatformKind::kPim) {
            obs::MetricsRegistry::global()
                .counter("pim.lane_samples")
                .add(lane->samplesServed());
        }
    }

    EngineResult result;
    result.perWorker.resize(locals.size());
    std::vector<double> all_latencies;
    double total_busy = 0.0;
    for (size_t w = 0; w < locals.size(); ++w) {
        WorkerLocal& local = locals[w];
        ServingStats& ws_stats = result.perWorker[w];
        ws_stats.samplesArrived = local.samplesServed;
        ws_stats.samplesServed = local.samplesServed;
        ws_stats.batchesServed = local.batchesServed;
        all_latencies.insert(all_latencies.end(),
                             local.latencies.begin(),
                             local.latencies.end());
        fillServingStats(local.latencies, local.busySeconds, 1.0, horizon,
                         config.simSeconds, &ws_stats);

        result.aggregate.samplesServed += local.samplesServed;
        result.aggregate.batchesServed += local.batchesServed;
        result.hostSeconds += local.hostSeconds;
        result.batchesExecuted += local.batchesServed;
        total_busy += local.busySeconds;
    }

    // The aggregate spans every server: utilization / offeredLoad
    // below divide by numWorkers plus one per lane.
    for (size_t i = 0; i < lanes.size(); ++i) {
        const AccelLane& lane = *lanes[i];
        LaneResult lr;
        lr.kind = lane.kind();
        lr.threshold = scheduler_->threshold(lane.kind(), model_);
        for (const WorkerLocal& local : locals) {
            lr.deferredTickets += local.deferredTickets[i];
        }
        lr.stats = laneStats(lane, horizon, config.simSeconds);
        result.lanes.push_back(lr);

        all_latencies.insert(all_latencies.end(),
                             lane.latencies().begin(),
                             lane.latencies().end());
        result.aggregate.samplesServed += lane.samplesServed();
        result.aggregate.batchesServed += lane.batchesServed();
        total_busy += lane.busySeconds();
    }

    result.aggregate.samplesArrived = queue.samplesArrived();
    const double capacity =
        static_cast<double>(config.numWorkers) +
        static_cast<double>(lanes.size());
    fillServingStats(all_latencies, total_busy, capacity, horizon,
                     config.simSeconds, &result.aggregate);

    result.intraOpThreads =
        config.numThreads > 0 ? config.numThreads : intraOpThreads();
    // Table-memory accounting: the shared store keeps one backing
    // copy plus the hot-row caches resident, against the full copy
    // per worker that private workspaces would hold.
    result.tableBytesOneCopy = modelEmbeddingBytes(model);
    if (store_model != nullptr) {
        result.perWorkerTableBytes =
            result.tableBytesOneCopy *
            static_cast<uint64_t>(config.numWorkers);
        result.residentTableBytes = store_model->residentBytes();
        result.storeStats = store_model->store().stats();
        exportStoreStats(result.storeStats);
    }
    if (result.batchesExecuted > 0) {
        result.hostSecondsPerBatch =
            result.hostSeconds /
            static_cast<double>(result.batchesExecuted);
    }
    // Slowdown factors were summed over CPU-serviced batches only
    // (deferred hand-offs and the lanes see no socket contention), so
    // average over exactly those. In runs without lanes the count
    // equals aggregate.batchesServed.
    uint64_t cpu_batches = 0;
    double slow_sum = 0.0;
    for (const WorkerLocal& local : locals) {
        cpu_batches += local.cpuServicedBatches;
        slow_sum += local.slowdownSum;
        result.maxSlowdown =
            std::max(result.maxSlowdown, local.slowdownMax);
    }
    if (cpu_batches > 0) {
        result.meanSlowdown =
            slow_sum / static_cast<double>(cpu_batches);
    }
    return result;
}

}  // namespace recstack
