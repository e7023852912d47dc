#ifndef RECSTACK_SERVE_ACCEL_LANE_H_
#define RECSTACK_SERVE_ACCEL_LANE_H_

/**
 * @file
 * AccelLane: an accelerator backend of the serving node
 * (DeepRecSys's accelInferenceEngine, in virtual time).
 *
 * The node's CPU workers pull dynamic batches from the BatchQueue; a
 * batch at or above the model's threshold for a configured lane's
 * platform kind (QueryScheduler::routesTo) is not serviced on the
 * worker — the worker only pays the host dispatch cost of handing the
 * batch over, and the samples land here. One mechanism serves both
 * accelerators: the lane's platform (a GPU for the heterogeneous
 * split, docs/scheduling.md, or the PIM DPU ranks, docs/pim.md) fixes
 * its kind, its hand-off cost and the grid that prices its batches. A
 * lane is a single virtual accelerator with its own dynamic batcher in
 * front of it:
 *
 *  - deferred samples accumulate in a pending queue; a lane batch
 *    launches when maxBatch samples are pending (batch-full) or when
 *    the oldest pending sample has sat in the lane for
 *    maxWaitSeconds (window-expired), whichever virtual instant comes
 *    first;
 *  - a launch is serialized behind the device (launch time =
 *    max(trigger, device-ready)), and its service time comes from the
 *    same characterization oracle as the CPU workers'
 *    (QueryScheduler::latency on the lane's platform, i.e. the batch
 *    is priced by GpuModel::simulateNet or the PIM model through the
 *    sweep grid), so CPU and lane completions live on one consistent
 *    virtual clock;
 *  - per-sample latency is end-to-end: completion minus the sample's
 *    *original* arrival time, batching delay of both queues included.
 *
 * Determinism: the node invokes submit()/advanceTo() under the
 * BatchQueue lock, in the strict virtual-time launch order the queue
 * already enforces, and drain() after the workers have joined. The
 * lane itself is therefore single-threaded by construction and its
 * stats are a pure function of the offered ticket sequence.
 *
 * Drain semantics: when the arrival stream is exhausted, remaining
 * pending samples launch at what would have been their window-expiry
 * instant (oldest submit + maxWaitSeconds), exactly as if the stream
 * had continued without filling the batch — so a lane-side drain
 * never completes a sample *earlier* than the live admission rules
 * would have.
 *
 * Why the lane keeps its own accumulation rule instead of running on
 * admissionStep (serve/admission.h), the rule BatchQueue and the
 * fleet twin share. It differs in three ways, each on purpose:
 *
 *  - its window counts from hand-off, not from the original arrival.
 *    A deferred sample has already spent its CPU-side batching delay;
 *    the lane batches what it is handed, so its window is its own
 *    queueing delay;
 *  - its launches queue behind the device (launch = max(trigger,
 *    device ready)). A CPU walk starts when its worker is free, so the
 *    step has no device frontier;
 *  - a window that expires exactly at a hand-off fires first, without
 *    the handed-off samples: submit() runs advanceTo(now) before they
 *    join. The step admits an arrival at the expiry instant first.
 *
 * Parameterising the step with a window origin, a device frontier and
 * a tie order would add three inputs that only this caller sets, to
 * replace a loop of a few lines. ServingEngineTest.LaneAccumulationRule
 * pins the three rules and the drain instant directly, and
 * ServingEngineTest.LaneDigestsArePinned pins whole-node lane stats.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "sched/query_scheduler.h"
#include "serve/batch_queue.h"

namespace recstack {

/** Platform and dynamic-batching knobs of one accelerator lane. */
struct AccelLaneConfig {
    /// Index of a kGpu or kPim platform in the scheduler's sweep.
    size_t platformIdx = 3;
    /// Accumulation cap: a lane batch never exceeds this many samples.
    int64_t maxBatch = 1024;
    /// Accumulation window measured from the oldest pending sample's
    /// hand-off time (not its original arrival).
    double maxWaitSeconds = 2e-3;
};

/** One batch the lane launched (for reporting / tests). */
struct AccelLaunch {
    double launchTime = 0.0;
    double completionTime = 0.0;
    int64_t batch = 0;
    /// Why the batch launched: batch-full, window-expired, or drain.
    enum class Reason { kFull, kWindow, kDrain } reason = Reason::kFull;
};

/** Single virtual accelerator with an accumulation queue in front. */
class AccelLane
{
  public:
    /**
     * Checks that cfg.platformIdx names a GPU or PIM platform of the
     * scheduler's sweep, and prewarms the model's latency grid on it
     * so later launches only read the memoized sweep.
     *
     * @param scheduler latency oracle (not owned; must outlive)
     * @param model     served model
     */
    AccelLane(QueryScheduler* scheduler, ModelId model,
              const AccelLaneConfig& cfg);

    /**
     * Hand one deferred dynamic batch to the lane at virtual time
     * @c now (the ticket's launch time on the CPU side). Calls must
     * arrive in non-decreasing @c now order; window expiries due at or
     * before @c now fire first, then the ticket's samples join the
     * pending queue, then any batch-full launches fire.
     */
    void submit(const BatchTicket& ticket, double now);

    /** Fire window expiries due at or before @c now (no new work). */
    void advanceTo(double now);

    /** Stream over: flush what is pending (see drain semantics). */
    void drain();

    /** kGpu or kPim: the kind of the lane's platform. */
    PlatformKind kind() const { return kind_; }
    /// What a hand-off costs the worker: the platform's host dispatch
    /// (at least 1 ns; BatchQueue needs a positive service time).
    double handoffSeconds() const { return handoffSeconds_; }

    // Accessors (call after drain() for final values).
    uint64_t samplesServed() const { return samplesServed_; }
    uint64_t batchesServed() const { return batchesServed_; }
    double busySeconds() const { return busySeconds_; }
    double lastCompletion() const { return lastCompletion_; }
    const std::vector<double>& latencies() const { return latencies_; }
    const std::vector<AccelLaunch>& launches() const { return launches_; }
    int64_t pendingSamples() const
    {
        return static_cast<int64_t>(pending_.size());
    }

  private:
    struct PendingSample {
        double arrival = 0.0;  ///< original query arrival time
        double submit = 0.0;   ///< hand-off time into the lane
    };

    void launch(double trigger, AccelLaunch::Reason reason);

    QueryScheduler* scheduler_;
    ModelId model_;
    AccelLaneConfig cfg_;
    PlatformKind kind_ = PlatformKind::kGpu;
    double handoffSeconds_ = 0.0;

    std::deque<PendingSample> pending_;
    double readyTime_ = 0.0;  ///< device virtual free time

    uint64_t samplesServed_ = 0;
    uint64_t batchesServed_ = 0;
    double busySeconds_ = 0.0;
    double lastCompletion_ = 0.0;
    std::vector<double> latencies_;
    std::vector<AccelLaunch> launches_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_ACCEL_LANE_H_
