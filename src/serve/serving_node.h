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
 * batch. Optional GPU and PIM lanes take the batches at or above the
 * scheduler's per-model thresholds, and in real-numerics modes the
 * workers share one embedding parameter store.
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
#include "serve/gpu_lane.h"
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
    /// numerics (weights materialized per worker — tests, small
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
    /// Share one sharded EmbeddingStore across all workers when
    /// running real numerics: workers bind shape-only table blobs
    /// against it instead of materializing a private copy of every
    /// table, cutting resident table bytes from O(workers) copies to
    /// O(1 copy + cache). Numerics stay bit-identical. Ignored in
    /// kProfileOnly (no table payloads exist there), and the env
    /// hatch RECSTACK_DISABLE_STORE=1 forces the legacy per-worker
    /// copies regardless.
    bool sharedEmbeddingStore = true;
    /// Shard / cache / tier knobs of the shared store.
    StoreConfig storeConfig;
    /// Turn span tracing on for the duration of this run (restoring
    /// the previous setting afterwards), so the run can be exported
    /// as a Chrome trace without touching RECSTACK_TRACE_RUNTIME.
    /// See docs/observability.md; the buffer is bounded, so long runs
    /// keep the oldest spans and count the rest in dropped().
    bool captureTrace = false;
    /// Heterogeneous serving (DeepRecSys loop, docs/scheduling.md):
    /// dynamic batches at or above the scheduler's per-model GPU
    /// threshold (QueryScheduler::gpuThreshold) are not serviced on
    /// the CPU worker — the worker pays only the host dispatch cost
    /// and the samples defer to a GpuLane accumulation queue priced
    /// by the GPU platform's characterization (GpuModel::simulateNet
    /// through the sweep), on the same virtual clock. Off by default:
    /// single-platform runs are bit-identical to the legacy engine.
    bool heterogeneous = false;
    /// Index of a kGpu platform in the scheduler's sweep (checked
    /// when heterogeneous is set).
    size_t gpuPlatformIdx = 3;
    /// Accumulation knobs of the GPU lane.
    GpuLaneConfig gpuLane;
    /// Near-memory lane (docs/pim.md): batches at or above the
    /// scheduler's per-model PIM threshold
    /// (QueryScheduler::pimThreshold) defer to a second accumulation
    /// lane priced by a kPim platform's characterization. Independent
    /// of the GPU split (both lanes can be on; the GPU threshold is
    /// checked first). Off by default: runs without the lane are
    /// bit-identical to the pre-PIM engine.
    bool pimLaneEnabled = false;
    /// Index of a kPim platform in the scheduler's sweep (checked
    /// when pimLaneEnabled is set).
    size_t pimPlatformIdx = 4;
    /// Accumulation knobs of the PIM lane.
    GpuLaneConfig pimLane;
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
    /// True when workers served table lookups from one shared
    /// EmbeddingStore instead of private per-worker copies.
    bool storeShared = false;
    /// Embedding-table bytes of one dense copy of the served model.
    uint64_t tableBytesOneCopy = 0;
    /// Table bytes resident across the engine at the end of the run:
    /// shared-store mode = one backing copy + hot-row caches; legacy
    /// numeric mode = workers x one copy; 0 in kProfileOnly.
    uint64_t residentTableBytes = 0;
    /// What per-worker dense copies would have kept resident
    /// (workers x one copy) — the baseline the shared store saves
    /// against. 0 in kProfileOnly.
    uint64_t perWorkerTableBytes = 0;
    /// Shard-aggregated store counters for this run (hit/miss/tier
    /// traffic and modeled fetch seconds); empty when !storeShared.
    /// Like hostSeconds, these are host-side measurement, not
    /// virtual-time state: hit/miss splits depend on the order in
    /// which concurrent workers touch the shared caches.
    StoreStats storeStats;
    /// True when this run served through the CPU/GPU split. The
    /// fields below are only populated then; aggregate combines both
    /// sides (its utilization/offeredLoad are over numWorkers + 1
    /// servers).
    bool heterogeneous = false;
    /// The accelerator lane's own serving view: samples/batches it
    /// served, its mean accumulated batch, device utilization, and
    /// the latency tail of GPU-served samples.
    ServingStats gpuLaneStats;
    /// Dynamic batches the CPU workers handed over to the lane.
    uint64_t deferredTickets = 0;
    /// The per-model threshold the run routed with
    /// (QueryScheduler::kNoGpuThreshold when none was set).
    int64_t gpuThreshold = 0;
    /// True when this run served through the PIM lane. The fields
    /// below are only populated then; the aggregate's
    /// utilization/offeredLoad count the lane as one more server.
    bool pimEnabled = false;
    /// The PIM lane's own serving view (mirror of gpuLaneStats).
    ServingStats pimLaneStats;
    /// Dynamic batches the CPU workers handed over to the PIM lane.
    uint64_t pimDeferredTickets = 0;
    /// The per-model PIM threshold the run routed with
    /// (QueryScheduler::kNoPimThreshold when none was set).
    int64_t pimThreshold = 0;
};

/** One inference machine: workers + batch queue + optional GPU lane. */
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
