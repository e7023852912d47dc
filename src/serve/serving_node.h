#ifndef RECSTACK_SERVE_SERVING_NODE_H_
#define RECSTACK_SERVE_SERVING_NODE_H_

/**
 * @file
 * ServingNode: one inference machine, the multi-worker serving engine.
 *
 * DeepRecSys splits at-scale recommendation serving into a query
 * scheduler and a pool of inference engines; a node reproduces that
 * split on real threads. N workers each own a Workspace and a
 * BatchGenerator, pull dynamic batches from a shared BatchQueue
 * (Poisson arrivals, the admission rule of serve/admission.h) and
 * genuinely drive Executor::run on the served model's net for every
 * batch. An optional list of accelerator lanes (GPU, PIM) takes the
 * batches at or above the scheduler's per-(kind, model) thresholds,
 * and in real-numerics modes the workers share one embedding
 * parameter store.
 *
 * run() serves the node's own Poisson stream; runTrace() serves an
 * explicit arrival trace, the sub-stream a fleet router assigned to
 * this node. The fleet simulator (fleet/fleet_sim.h) composes M
 * analytic twins of a node behind a router, and a 1-node, 1-worker
 * fleet is the single-server analytical model.
 *
 * Latency accounting is virtual: each batch's service time comes from
 * the QueryScheduler's characterization-grid oracle, stretched by the
 * socket co-location model (serve/contention.h) according to how many
 * workers are busy at launch, plus a per-sample placement surcharge
 * for embedding rows held by peer nodes
 * (EngineConfig::remoteSecondsPerSample). The queue releases batches
 * in virtual-time order, so every stat is a pure function of the
 * config, never of OS thread interleaving.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/executor.h"
#include "sched/query_scheduler.h"
#include "sched/serving_stats.h"
#include "serve/accel_lane.h"
#include "store/embedding_store.h"

namespace recstack {

/** One serving run on a node. */
struct EngineConfig {
    int numWorkers = 1;            ///< inference worker threads
    double arrivalQps = 1000.0;    ///< mean sample arrival rate
    int64_t maxBatch = 256;        ///< dynamic-batching cap
    double maxWaitSeconds = 1e-3;  ///< batching window
    double simSeconds = 2.0;       ///< arrival-stream duration
    uint64_t seed = 42;
    /// How workers execute the net per batch: kNumericOnly runs real
    /// numerics (tables read through the shared store — tests, small
    /// models); kProfileOnly runs shape inference only (full-size
    /// models, high load). kFull additionally lowers profiles.
    ExecMode execMode = ExecMode::kProfileOnly;
    /// Couple service times to the shared-L3/DRAM contention model.
    bool modelContention = true;
    /// Intra-op width each worker passes to Executor::run. All
    /// workers share the one process-wide pool
    /// (common/thread_pool.h). 1 = serial kernels (default: inter-op
    /// worker parallelism already covers the socket); 0 = process
    /// default (RECSTACK_NUM_THREADS). Numerics are bit-identical at
    /// any width, so this only moves EngineResult::hostSeconds.
    int numThreads = 1;
    /// Shard / cache / tier knobs of the store the workers share when
    /// running real numerics: workers bind shape-only table blobs
    /// against one sharded EmbeddingStore (models/store_binding.h)
    /// instead of materializing a private copy of every table, so
    /// resident table bytes are O(1 copy + cache), not O(workers).
    /// Unused in kProfileOnly (no table payloads exist there).
    StoreConfig storeConfig;
    /// Turn span tracing on for the duration of this run (restoring
    /// the previous setting afterwards), so the run can be exported
    /// as a Chrome trace without touching RECSTACK_TRACE_RUNTIME.
    /// See docs/observability.md; the buffer is bounded, so long runs
    /// keep the oldest spans and count the rest in dropped().
    bool captureTrace = false;
    /// Accelerator lanes (DeepRecSys loop, docs/scheduling.md and
    /// docs/pim.md): a dynamic batch at or above the scheduler's
    /// threshold for a lane's platform kind
    /// (QueryScheduler::routesTo) is not serviced on the CPU worker —
    /// the worker pays only the platform's host dispatch and the
    /// samples defer to that AccelLane, priced by the platform's
    /// characterization on the same virtual clock. A batch defers to
    /// the first listed lane whose threshold it reaches, so {GPU, PIM}
    /// keeps an already-tuned GPU split ahead of PIM. Empty by
    /// default: single-platform runs.
    std::vector<AccelLaneConfig> lanes;
    /// Placement surcharge (docs/fleet.md): extra virtual seconds per
    /// sample added to every CPU-serviced batch's service time,
    /// pricing embedding rows this node must fetch from a peer
    /// because its placement holds only part of each table
    /// (row-range-partitioned fleets). Not inflated by the socket
    /// contention factor — remote fetches cross the network, not the
    /// shared L3/DRAM. 0.0 (default) = every row is local, the
    /// single-node behavior, bit-identical to the legacy engine.
    double remoteSecondsPerSample = 0.0;
};

/** One accelerator lane's share of a node run. */
struct LaneResult {
    PlatformKind kind = PlatformKind::kGpu;
    /// The threshold the run routed with
    /// (QueryScheduler::kNoThreshold when none was set).
    int64_t threshold = QueryScheduler::kNoThreshold;
    /// Dynamic batches the CPU workers handed over to the lane.
    uint64_t deferredTickets = 0;
    /// The lane's own serving view: samples/batches it served, its
    /// mean accumulated batch, device utilization, and the latency
    /// tail of the samples it served.
    ServingStats stats;
};

/** Result of one node run. */
struct EngineResult {
    ServingStats aggregate;
    std::vector<ServingStats> perWorker;
    /// Mean / max service-time inflation applied across batches
    /// (1.0 = no contention observed).
    double meanSlowdown = 1.0;
    double maxSlowdown = 1.0;
    /// Real host seconds spent inside Executor::run across workers
    /// (wall-clock measurement, not part of the virtual-time stats).
    /// 0.0 when execMode is kProfileOnly (no kernels run there; see
    /// graph/executor.h hostSeconds semantics).
    double hostSeconds = 0.0;
    uint64_t batchesExecuted = 0;
    /// Mean real host seconds per executed batch (hostSeconds /
    /// batchesExecuted); comparing runs at different numThreads gives
    /// the measured per-batch intra-op speedup.
    double hostSecondsPerBatch = 0.0;
    /// Resolved intra-op width the workers used.
    int intraOpThreads = 1;
    /// Embedding-table bytes of one dense copy of the served model.
    uint64_t tableBytesOneCopy = 0;
    /// Table bytes resident across the engine at the end of the run:
    /// the store's one backing copy + hot-row caches; 0 in
    /// kProfileOnly.
    uint64_t residentTableBytes = 0;
    /// What per-worker dense copies would have kept resident
    /// (workers x one copy) — the baseline the shared store saves
    /// against. 0 in kProfileOnly.
    uint64_t perWorkerTableBytes = 0;
    /// Shard-aggregated store counters for this run (hit/miss/tier
    /// traffic and modeled fetch seconds); empty in kProfileOnly.
    /// Like hostSeconds, these are host-side measurement, not
    /// virtual-time state: hit/miss splits depend on the order in
    /// which concurrent workers touch the shared caches.
    StoreStats storeStats;
    /// One entry per configured lane, in EngineConfig::lanes order.
    /// The aggregate above combines the workers and every lane (its
    /// utilization/offeredLoad count each lane as one more server).
    std::vector<LaneResult> lanes;
};

/** One inference machine: workers + batch queue + accelerator lanes. */
class ServingNode
{
  public:
    /**
     * @param scheduler    latency oracle over the characterization
     *                     grid (not owned; must outlive the node)
     * @param model        served model
     * @param platform_idx platform in the scheduler's sweep
     */
    ServingNode(QueryScheduler* scheduler, ModelId model,
                size_t platform_idx);

    /** Serve a self-generated Poisson stream. */
    EngineResult run(const EngineConfig& config);

    /**
     * Serve an explicit arrival trace instead of a generated stream:
     * the timestamps (ascending, in [0, config.simSeconds)) are the
     * sub-stream a fleet router assigned to this node. Everything
     * else — admission, contention, execution, stats — is identical
     * to run(); a trace equal to the Poisson stream the config would
     * generate reproduces run()'s results exactly.
     */
    EngineResult runTrace(const EngineConfig& config,
                          std::vector<double> arrivals);

    /**
     * The node's compiled net (compile-once: shared by all workers of
     * all run() calls; workers only differ in their private
     * Workspace + Arena). Null until the first run.
     */
    std::shared_ptr<const CompiledNet> compiled() const;

    ModelId model() const { return model_; }
    size_t platformIdx() const { return platformIdx_; }
    QueryScheduler* scheduler() const { return scheduler_; }

  private:
    EngineResult runImpl(const EngineConfig& config,
                         std::vector<double>* trace);

    QueryScheduler* scheduler_;
    ModelId model_;
    size_t platformIdx_;

    /// One compilation per node, reused across run() configs; the
    /// per-batch memory plans inside it are shared by every worker.
    mutable std::mutex compileMu_;
    std::shared_ptr<CompiledNet> compiled_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_SERVING_NODE_H_
