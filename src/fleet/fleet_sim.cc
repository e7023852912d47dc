#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "common/logging.h"
#include "models/store_binding.h"
#include "serve/admission.h"
#include "serve/batch_queue.h"
#include "serve/contention.h"

namespace recstack {
namespace fleet {
namespace {

/// Consistent-hash ring points per node.
constexpr int kVirtualNodesPerNode = 128;
/// Per-node latency histogram shape (fleet tails are merged from
/// these, so every node uses the same one).
constexpr double kHistogramLoSeconds = 0.0;
constexpr double kHistogramHiSeconds = 1.0;
constexpr size_t kHistogramBuckets = 1000;

/**
 * Analytic twin of one ServingNode: BatchQueue's walk over the shared
 * admission step (serve/admission.h) run sequentially instead of
 * across threads, advanced incrementally so the router can ask for a
 * node's queue depth at any arrival instant.
 *
 * The twin distinguishes what the real queue cannot: during the run
 * only arrivals before the global frontier are *known* (later global
 * arrivals have not been routed yet), so the step stalls any launch
 * decision a still-unrouted arrival could change until the frontier
 * passes its decision point. Because arrivals are routed in
 * strictly increasing time order, every stall eventually resolves
 * with exactly the knowledge the real BatchQueue would have had from
 * the full trace — which is what the differential replay test pins
 * (a captured trace fed to ServingNode::runTrace reproduces the
 * twin's stats).
 */
class VirtualNode
{
  public:
    VirtualNode(QueryScheduler* scheduler, ModelId model,
                size_t platform_idx, const FleetConfig& config,
                const std::vector<double>& factors,
                double remote_seconds_per_sample)
        : scheduler_(scheduler), model_(model),
          platformIdx_(platform_idx), workers_(config.workersPerNode),
          maxBatch_(config.maxBatch),
          maxWait_(config.maxWaitSeconds),
          horizon_(config.simSeconds), factors_(factors),
          remotePerSample_(remote_seconds_per_sample),
          histogram_(kHistogramLoSeconds, kHistogramHiSeconds,
                     kHistogramBuckets)
    {
        readyTime_.assign(static_cast<size_t>(workers_), 0.0);
        active_.assign(static_cast<size_t>(workers_), true);
        perWorkerBusy_.assign(static_cast<size_t>(workers_), 0.0);
        perWorkerLatencies_.resize(static_cast<size_t>(workers_));
        perWorkerLast_.assign(static_cast<size_t>(workers_), 0.0);
    }

    /** Route one arrival here (strictly increasing timestamps). */
    void addArrival(double t)
    {
        known_.push_back(t);
        ++arrived_;
    }

    /** No further arrivals will ever be routed to this node. */
    void endStream() { streamEnded_ = true; }

    /**
     * Outstanding work at time @c t for power-of-two-choices: queued
     * samples (admitted or routed-but-unadmitted — the real queue
     * would have admitted them by @c t) plus workers still in virtual
     * service (strict >, the busyAtLaunch convention). Call
     * advance(t) first.
     */
    double depth(double t) const
    {
        double d = static_cast<double>(known_.size() + pending_.size());
        for (size_t v = 0; v < readyTime_.size(); ++v) {
            if (active_[v] && readyTime_[v] > t) {
                d += 1.0;
            }
        }
        return d;
    }

    /**
     * Process every launch whose time is strictly before @c frontier
     * (pass +inf after endStream() to drain and retire all workers).
     */
    void advance(double frontier)
    {
        while (true) {
            const int w = BatchQueue::nextWorker(readyTime_, active_);
            if (w < 0) {
                return;  // all workers retired
            }
            if (!streamEnded_ &&
                readyTime_[static_cast<size_t>(w)] >= frontier) {
                return;  // launch would be at/after the frontier
            }
            if (tryAcquire(w, frontier) == Step::kStalled) {
                return;
            }
        }
    }

    uint64_t arrived() const { return arrived_; }
    uint64_t samplesServed() const { return samplesServed_; }
    uint64_t batchesServed() const { return batchesServed_; }
    const obs::LatencyHistogram& histogram() const { return histogram_; }

    /**
     * Fold this node's run into ServingStats with exactly the
     * formulas ServingNode uses (worker-order summation, shared
     * fillServingStats), so the differential replay matches to the
     * last bit. Returns the node-local horizon.
     */
    double finalize(ServingStats* stats,
                    std::vector<double>* pooled_latencies)
    {
        double horizon = horizon_;
        for (double last : perWorkerLast_) {
            horizon = std::max(horizon, last);
        }
        std::vector<double> all;
        double busy = 0.0;
        for (size_t w = 0; w < perWorkerLatencies_.size(); ++w) {
            all.insert(all.end(), perWorkerLatencies_[w].begin(),
                       perWorkerLatencies_[w].end());
            busy += perWorkerBusy_[w];
        }
        stats->samplesArrived = arrived_;
        stats->samplesServed = samplesServed_;
        stats->batchesServed = batchesServed_;
        if (pooled_latencies != nullptr) {
            pooled_latencies->insert(pooled_latencies->end(),
                                     all.begin(), all.end());
        }
        fillServingStats(all, busy, static_cast<double>(workers_),
                         horizon, horizon_, stats);
        totalBusy_ = busy;
        return horizon;
    }

    double totalBusySeconds() const { return totalBusy_; }

  private:
    enum class Step { kLaunched, kRetired, kStalled };

    void admitOne()
    {
        pending_.push_back(known_.front());
        known_.pop_front();
    }

    void admitUpTo(double t)
    {
        while (!known_.empty() && known_.front() <= t) {
            admitOne();
        }
    }

    /** One BatchQueue::acquire walk for worker @c w. */
    Step tryAcquire(int w, double frontier)
    {
        double t;
        if (walkActive_) {
            // BatchQueue::acquire is one uninterrupted walk whose
            // virtual time only moves forward; a stalled walk must
            // resume from where it paused (its admissions are already
            // in pending_), not restart at the worker's free time.
            RECSTACK_CHECK(walkWorker_ == w,
                           "stalled walk resumed by a different worker");
            t = walkT_;
            walkActive_ = false;
        } else {
            t = readyTime_[static_cast<size_t>(w)];
            admitUpTo(t);
        }
        if (streamEnded_) {
            frontier = kWholeStreamKnown;
        }
        while (true) {
            const Admission step = admissionStep(
                t, static_cast<int64_t>(pending_.size()),
                pending_.empty() ? 0.0 : pending_.front(),
                known_.empty() ? std::nullopt
                               : std::optional(known_.front()),
                frontier, maxBatch_, maxWait_);
            t = step.t;
            switch (step.action) {
            case AdmitAction::kAdmitNext:
                admitOne();
                break;
            case AdmitAction::kStall:
                return stall(w, t);
            case AdmitAction::kRetire:
                active_[static_cast<size_t>(w)] = false;
                return Step::kRetired;
            default:
                launch(w, t, step.batch);
                return Step::kLaunched;
            }
        }
    }

    /** Park the walk so the next tryAcquire resumes at @c t. */
    Step stall(int w, double t)
    {
        walkActive_ = true;
        walkWorker_ = w;
        walkT_ = t;
        return Step::kStalled;
    }

    void launch(int w, double t, int64_t batch)
    {
        const int busy = BatchQueue::busyAtLaunch(
            readyTime_, active_, static_cast<size_t>(w), t);
        const double svc = priceBatch(scheduler_, model_, platformIdx_,
                                      factors_, busy, batch,
                                      remotePerSample_)
                               .seconds;
        const double completion = t + svc;
        readyTime_[static_cast<size_t>(w)] = completion;
        perWorkerBusy_[static_cast<size_t>(w)] += completion - t;
        perWorkerLast_[static_cast<size_t>(w)] = std::max(
            perWorkerLast_[static_cast<size_t>(w)], completion);
        for (int64_t i = 0; i < batch; ++i) {
            const double latency = completion - pending_.front();
            perWorkerLatencies_[static_cast<size_t>(w)].push_back(
                latency);
            histogram_.record(latency);
            pending_.pop_front();
        }
        samplesServed_ += static_cast<uint64_t>(batch);
        ++batchesServed_;
    }

    QueryScheduler* scheduler_;
    ModelId model_;
    size_t platformIdx_;
    int workers_;
    int64_t maxBatch_;
    double maxWait_;
    double horizon_;
    const std::vector<double>& factors_;
    double remotePerSample_;

    std::deque<double> known_;    ///< routed, not yet admitted
    std::deque<double> pending_;  ///< admitted, waiting for a batch
    bool streamEnded_ = false;
    uint64_t arrived_ = 0;

    bool walkActive_ = false;  ///< a stalled acquire walk is parked
    int walkWorker_ = -1;      ///< worker owning the parked walk
    double walkT_ = 0.0;       ///< virtual time at the stall point

    std::vector<double> readyTime_;
    std::vector<bool> active_;
    std::vector<double> perWorkerBusy_;
    std::vector<double> perWorkerLast_;
    std::vector<std::vector<double>> perWorkerLatencies_;
    uint64_t samplesServed_ = 0;
    uint64_t batchesServed_ = 0;
    double totalBusy_ = 0.0;

    obs::LatencyHistogram histogram_;
};

}  // namespace

FleetSimulator::FleetSimulator(QueryScheduler* scheduler, ModelId model,
                               size_t platform_idx)
    : scheduler_(scheduler), model_(model), platformIdx_(platform_idx)
{
    RECSTACK_CHECK(scheduler_ != nullptr,
                   "fleet simulator needs a scheduler");
    RECSTACK_CHECK(platform_idx < scheduler_->sweep()->platforms().size(),
                   "platform index out of range");
}

FleetResult
FleetSimulator::simulate(const FleetConfig& config,
                         const TrafficConfig& traffic)
{
    RECSTACK_CHECK(config.numNodes >= 1, "need at least one node");
    RECSTACK_CHECK(config.workersPerNode >= 1,
                   "need at least one worker per node");
    RECSTACK_CHECK(config.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(config.simSeconds > 0.0, "duration must be > 0");
    RECSTACK_CHECK(traffic.baseQps > 0.0, "arrival rate must be > 0");
    RECSTACK_CHECK(traffic.numUsers > 0, "need a user population");

    const Model& model = scheduler_->sweep()->characterizer().model(model_);
    const std::vector<double> factors = nodeSlowdowns(
        scheduler_, model_, platformIdx_, config.maxBatch,
        config.workersPerNode, config.modelContention);

    const PlacementView placement(config.placement, config.numNodes,
                                  model.workload);

    const int M = config.numNodes;
    std::vector<std::unique_ptr<VirtualNode>> nodes;
    nodes.reserve(static_cast<size_t>(M));
    for (int n = 0; n < M; ++n) {
        nodes.push_back(std::make_unique<VirtualNode>(
            scheduler_, model_, platformIdx_, config, factors,
            placement.remoteSecondsPerSample()));
    }

    FleetResult result;
    result.remoteSecondsPerSample = placement.remoteSecondsPerSample();
    result.nodeTableBytes =
        placement.nodeTableBytes(modelEmbeddingBytes(model));
    result.perNode.resize(static_cast<size_t>(M));

    // Global arrival stream: modulated Poisson clock, Zipf user draw
    // per query, route in arrival order. p2c is the only policy that
    // needs the incremental advance during generation — the others
    // route from the key/cursor alone.
    ModulatedPoissonProcess arrivals(traffic.baseQps, traffic.envelope,
                                     traffic.seed);
    ZipfSampler users(static_cast<uint64_t>(traffic.numUsers),
                      traffic.userZipf);
    Rng user_rng(traffic.seed ^ 0x7f4a7c159e3779b9ull);
    Router router(config.policy, M, traffic.seed ^ 0xa0761d6478bd642full,
                  kVirtualNodesPerNode);
    const bool needs_depth = config.policy == RoutePolicy::kPowerOfTwo;
    std::vector<double> depths(static_cast<size_t>(M), 0.0);

    while (true) {
        const double t = arrivals.next();
        if (t >= config.simSeconds) {
            break;
        }
        const uint64_t user = users.sample(user_rng);
        if (needs_depth) {
            for (int n = 0; n < M; ++n) {
                nodes[static_cast<size_t>(n)]->advance(t);
                depths[static_cast<size_t>(n)] =
                    nodes[static_cast<size_t>(n)]->depth(t);
            }
        }
        const int n = router.route(user, depths);
        nodes[static_cast<size_t>(n)]->addArrival(t);
        if (config.captureTraces) {
            result.perNode[static_cast<size_t>(n)]
                .arrivalTrace.push_back(t);
        }
        ++result.totalArrivals;
    }

    // Stream over: drain every node to completion.
    for (auto& node : nodes) {
        node->endStream();
        node->advance(kWholeStreamKnown);
    }

    // Per-node stats + the two tail views: exact (pooled latencies)
    // and merged-histogram (the metrics-pipeline roll-up).
    result.mergedHistogram.lo = kHistogramLoSeconds;
    result.mergedHistogram.hi = kHistogramHiSeconds;
    result.mergedHistogram.counts.assign(kHistogramBuckets, 0);
    std::vector<double> pooled;
    double fleet_horizon = config.simSeconds;
    double total_busy = 0.0;
    uint64_t max_routed = 0;
    for (int n = 0; n < M; ++n) {
        VirtualNode& node = *nodes[static_cast<size_t>(n)];
        FleetNodeResult& out = result.perNode[static_cast<size_t>(n)];
        const double node_horizon = node.finalize(&out.stats, &pooled);
        fleet_horizon = std::max(fleet_horizon, node_horizon);
        total_busy += node.totalBusySeconds();
        out.routedQueries = node.arrived();
        max_routed = std::max(max_routed, node.arrived());
        out.latencyHistogram = node.histogram().snapshot();
        result.mergedHistogram.merge(out.latencyHistogram);

        result.aggregate.samplesArrived += out.stats.samplesArrived;
        result.aggregate.samplesServed += out.stats.samplesServed;
        result.aggregate.batchesServed += out.stats.batchesServed;
    }
    const double capacity = static_cast<double>(M) *
                            static_cast<double>(config.workersPerNode);
    fillServingStats(pooled, total_busy, capacity, fleet_horizon,
                     config.simSeconds, &result.aggregate);
    result.mergedP99 = result.mergedHistogram.percentile(0.99);
    if (result.totalArrivals > 0) {
        const double mean_routed =
            static_cast<double>(result.totalArrivals) /
            static_cast<double>(M);
        result.routedImbalance =
            static_cast<double>(max_routed) / mean_routed;
    }
    return result;
}

}  // namespace fleet
}  // namespace recstack
