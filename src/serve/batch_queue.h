#ifndef RECSTACK_SERVE_BATCH_QUEUE_H_
#define RECSTACK_SERVE_BATCH_QUEUE_H_

/**
 * @file
 * BatchQueue: the concurrent admission front of ServingNode.
 *
 * Queries arrive on an open-loop Poisson clock (PoissonProcess), or
 * as an explicit arrival trace, and pool in a shared pending queue.
 * A free worker walks virtual time forward over the admission step of
 * serve/admission.h (batch-full, window-expired or drain) until it
 * launches a batch or retires. The queue adds only the effects: the
 * lock, the per-worker virtual clocks, the queue.* counters, and the
 * ticket handed to the worker.
 *
 * Time is virtual: a worker's service time is priced by the node's
 * latency oracle, not wall clock, so the node is a *measured*
 * discrete-event system executed by real threads. To keep results
 * independent of OS thread interleaving, the queue hands out batches
 * in strict virtual-time order: only the worker with the earliest
 * virtual free time (ties broken by worker id) may take the next
 * batch; later workers block until their virtual turn. A worker's
 * next free time is known at assignment time (launch + service), so
 * the ordering never deadlocks — the argmin worker is always either
 * executing its batch or inside acquire().
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "workload/batch_generator.h"

namespace recstack {

/** One batch released by the queue to a worker. */
struct BatchTicket {
    uint64_t seq = 0;          ///< global release order
    double launchTime = 0.0;   ///< virtual time the batch starts service
    std::vector<double> arrivals;  ///< per-sample arrival timestamps

    int64_t size() const { return static_cast<int64_t>(arrivals.size()); }
};

/** Deterministic concurrent dynamic-batching queue. */
class BatchQueue
{
  public:
    struct Config {
        double arrivalQps = 1000.0;
        int64_t maxBatch = 256;
        double maxWaitSeconds = 1e-3;
        /// Arrivals are generated for timestamps < horizonSeconds.
        double horizonSeconds = 2.0;
        uint64_t seed = 42;
        int numWorkers = 1;
        /// Explicit arrival-trace mode (fleet nodes): when set, the
        /// queue admits the timestamps in `arrivalTrace` (ascending,
        /// >= 0) instead of drawing a Poisson stream — a routed node
        /// serves exactly the sub-stream a fleet router assigned to
        /// it. Timestamps at or past horizonSeconds are ignored, the
        /// same cut-off the generated stream has; admission, launch,
        /// and drain rules are unchanged, so a trace equal to the
        /// Poisson stream reproduces the generated run exactly.
        bool useArrivalTrace = false;
        std::vector<double> arrivalTrace;
    };

    explicit BatchQueue(const Config& cfg);

    /**
     * Virtual service-time oracle: (ticket, busy workers at launch
     * including the caller) -> seconds. Invoked under the queue lock,
     * so implementations may touch non-thread-safe shared state (the
     * memoized characterization sweep).
     */
    using ServiceFn = std::function<double(const BatchTicket&, int)>;

    /**
     * Block until worker @c wid is the earliest-virtually-free active
     * worker, then form and take the next batch. On success fills the
     * ticket, the batch's virtual completion time (launch + service)
     * and the number of busy workers at launch, and returns true.
     * Returns false when the arrival stream is exhausted and the
     * pending queue is empty — the worker has retired.
     */
    bool acquire(int wid, const ServiceFn& service, BatchTicket* ticket,
                 double* completion, int* busy_at_launch);

    /**
     * Whose turn it is: the active worker with the earliest virtual
     * free time, lowest id on ties; -1 once every worker has retired.
     * Static so the fleet twin follows the same order.
     */
    static int nextWorker(const std::vector<double>& ready_times,
                          const std::vector<bool>& active);

    /**
     * Occupancy at a batch launch: the caller plus every other active
     * worker whose current batch is still in virtual service at time
     * @c t.
     *
     * Tie convention (pinned): a batch occupies its worker over the
     * half-open interval [launch, completion) — a worker whose batch
     * completes *exactly* at @c t is idle at @c t, not busy. This is
     * the same convention under which the launching worker itself is
     * free to take a new batch at its own completion instant
     * (readyTime_[wid] == t), so the two sides of the accounting
     * agree: occupancy counts exactly the workers that could not
     * launch at @c t. The contention model (serve/contention.h) keys
     * its slowdown factor off this count, so the convention is locked
     * in by a virtual-time tie regression test in
     * tests/test_serving_engine.cc.
     *
     * Exposed as a pure static so the tie case can be tested with
     * exact doubles; acquire() uses it under the queue lock.
     */
    static int busyAtLaunch(const std::vector<double>& ready_times,
                            const std::vector<bool>& active, size_t wid,
                            double t);

    /** Samples admitted from the arrival stream so far. */
    uint64_t samplesArrived() const;

  private:
    void admitUpTo(double t);
    void admitOne();
    double drawArrival();

    Config cfg_;
    mutable std::mutex mu_;
    std::condition_variable cv_;

    PoissonProcess process_;
    size_t traceCursor_ = 0;
    double nextArrival_ = 0.0;
    bool exhausted_ = false;
    std::deque<double> pending_;   // arrival times of waiting samples
    uint64_t arrived_ = 0;
    uint64_t seq_ = 0;

    std::vector<double> readyTime_;  ///< per-worker virtual free time
    std::vector<bool> active_;
};

}  // namespace recstack

#endif  // RECSTACK_SERVE_BATCH_QUEUE_H_
