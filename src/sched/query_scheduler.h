#ifndef RECSTACK_SCHED_QUERY_SCHEDULER_H_
#define RECSTACK_SCHED_QUERY_SCHEDULER_H_

/**
 * @file
 * QueryScheduler: a DeepRecSys-style heterogeneity-aware inference
 * router built on top of the characterization engine.
 *
 * The paper's Section III-B notes that "exploiting hardware
 * heterogeneity to schedule inferences on optimum platforms based on
 * use cases (i.e., model architecture, inference batch-size)
 * significantly improves recommendation performance". This module
 * operationalizes the Fig. 5 optimal-platform grid: given a latency
 * SLA, it picks the platform and batch size that maximize throughput
 * while honoring the tail budget.
 */

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.h"

namespace recstack {

/**
 * Linear extrapolation of the latency curve above the last grid knot
 * (@c b0 < @c b1 <= @c batch, with measured seconds @c s0 and @c s1),
 * clamped so a noisy last segment can never produce a nonsensical
 * prediction: a measurement blip with s1 < s0 gives a negative slope,
 * which for large enough batches extrapolates straight through zero
 * into negative latency. The clamp floors the result at the last
 * knot's per-sample scaling, s1 * batch / b1 — the latency the batch
 * would take if every sample cost what a batch-b1 sample costs — which
 * is positive and strictly increasing in batch. Exposed as a free
 * function so the regression test can drive it with a noisy segment
 * directly (the characterization grid itself is monotone).
 */
double extrapolateLatencyAboveGrid(int64_t b0, double s0, int64_t b1,
                                   double s1, int64_t batch);

/** Routing decision for one (model, batch) query. */
struct ScheduleDecision {
    size_t platformIdx = 0;
    int64_t batch = 0;
    double expectedLatency = 0.0;
    bool meetsSla = false;
};

/** Best sustainable operating point under an SLA. */
struct ThroughputPoint {
    size_t platformIdx = 0;
    int64_t batch = 0;
    double latencySeconds = 0.0;
    double samplesPerSecond = 0.0;
    bool feasible = false;
};

/**
 * Heterogeneity-aware router over a SweepCache's platform set.
 * Latencies between the cached batch grid points are interpolated
 * linearly in batch size (latency is convex and near-affine in batch
 * across the grid the paper uses).
 */
class QueryScheduler
{
  public:
    /**
     * @param sweep  characterization grid (not owned; must outlive
     *               the scheduler)
     * @param batch_grid batch sizes used as interpolation knots;
     *               defaults to the paper's 1..16384 axis
     */
    explicit QueryScheduler(SweepCache* sweep,
                            std::vector<int64_t> batch_grid = {});

    /** Expected latency of (model, batch) on one platform. */
    double latency(ModelId model, size_t platform_idx, int64_t batch);

    /**
     * Route one query of the given batch to the fastest platform.
     * Ties resolve deterministically to the lowest platform index
     * (platforms() order: CPUs before GPUs).
     */
    ScheduleDecision route(ModelId model, int64_t batch,
                           double sla_seconds);

    /**
     * Largest grid batch whose latency on the platform stays within
     * the SLA (0 when even batch 1 misses it).
     */
    int64_t maxBatchUnderSla(ModelId model, size_t platform_idx,
                             double sla_seconds);

    /**
     * The operating point (platform, batch) that maximizes
     * samples/second subject to the SLA.
     */
    ThroughputPoint bestThroughputUnderSla(ModelId model,
                                           double sla_seconds);

    const std::vector<int64_t>& batchGrid() const { return batchGrid_; }

    /** The underlying characterization grid (not owned). */
    SweepCache* sweep() const { return sweep_; }

    // ------------------------------------------------------------------
    // DeepRecSys-style accelerator split: per-(kind, model) batch-size
    // thresholds.
    //
    // The serving node asks the scheduler, per dynamic batch, whether
    // the batch should stay on the CPU worker pool (small / latency-
    // critical) or defer to an accelerator lane of a given platform
    // kind (large / throughput-oriented): a GPU, or the PIM DPU ranks
    // that amortize the host<->DPU transfer over large SLS-heavy
    // batches. The decision is a single threshold on the batch size
    // per (kind, model), tuned online by the hill-climbing tuner
    // (sched/hill_climb.h) against the p99 SLA. When a batch reaches
    // the thresholds of several configured lanes, the node defers it
    // to the first lane in its list. Not synchronized: callers
    // serialize externally (the node reads thresholds under its queue
    // lock; the tuner writes between node runs).
    // ------------------------------------------------------------------

    /** Threshold meaning "never defer to the accelerator" (default). */
    static constexpr int64_t kNoThreshold =
        std::numeric_limits<int64_t>::max();

    /**
     * Set the model's split point for accelerator @c kind: batches of
     * size >= threshold defer to a lane of that kind. Must be >= 1; a
     * threshold of 1 routes every batch, kNoThreshold routes none.
     */
    void setThreshold(PlatformKind kind, ModelId model, int64_t threshold);

    /** The split point (kNoThreshold when never set). */
    int64_t threshold(PlatformKind kind, ModelId model) const;

    /** True when a batch of this size defers to a lane of @c kind. */
    bool routesTo(PlatformKind kind, ModelId model, int64_t batch) const
    {
        return batch >= threshold(kind, model);
    }

  private:
    SweepCache* sweep_;
    std::vector<int64_t> batchGrid_;
    std::map<std::pair<PlatformKind, ModelId>, int64_t> thresholds_;
};

}  // namespace recstack

#endif  // RECSTACK_SCHED_QUERY_SCHEDULER_H_
