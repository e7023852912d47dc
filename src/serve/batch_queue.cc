#include "serve/batch_queue.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/admission.h"

namespace recstack {
namespace {

struct QueueMetrics {
    obs::Counter& batches;
    obs::Counter& samples;
    obs::Counter& launchFull;
    obs::Counter& launchWindow;
    obs::Counter& launchDrain;

    static QueueMetrics& get()
    {
        static QueueMetrics* m = [] {
            auto& reg = obs::MetricsRegistry::global();
            return new QueueMetrics{
                reg.counter("queue.batches"),
                reg.counter("queue.samples"),
                reg.counter("queue.launch_batch_full"),
                reg.counter("queue.launch_window_expired"),
                reg.counter("queue.launch_drain"),
            };
        }();
        return *m;
    }
};

}  // namespace

BatchQueue::BatchQueue(const Config& cfg)
    : cfg_(cfg), process_(cfg.arrivalQps, cfg.seed)
{
    RECSTACK_CHECK(cfg_.maxBatch > 0, "batch cap must be > 0");
    RECSTACK_CHECK(cfg_.horizonSeconds > 0.0, "horizon must be > 0");
    RECSTACK_CHECK(cfg_.numWorkers >= 1, "need at least one worker");
    if (cfg_.useArrivalTrace) {
        for (size_t i = 0; i < cfg_.arrivalTrace.size(); ++i) {
            RECSTACK_CHECK(cfg_.arrivalTrace[i] >= 0.0,
                           "trace arrivals must be >= 0");
            RECSTACK_CHECK(i == 0 || cfg_.arrivalTrace[i] >=
                                         cfg_.arrivalTrace[i - 1],
                           "trace arrivals must be ascending");
        }
    }
    readyTime_.assign(static_cast<size_t>(cfg_.numWorkers), 0.0);
    active_.assign(static_cast<size_t>(cfg_.numWorkers), true);
    nextArrival_ = drawArrival();
    exhausted_ = nextArrival_ >= cfg_.horizonSeconds;
}

double
BatchQueue::drawArrival()
{
    if (cfg_.useArrivalTrace) {
        if (traceCursor_ >= cfg_.arrivalTrace.size()) {
            // Past-the-end sentinel >= any horizon: flips exhausted_.
            return cfg_.horizonSeconds;
        }
        return cfg_.arrivalTrace[traceCursor_++];
    }
    return process_.next();
}

int
BatchQueue::nextWorker(const std::vector<double>& ready_times,
                       const std::vector<bool>& active)
{
    int best = -1;
    for (size_t v = 0; v < ready_times.size(); ++v) {
        if (active[v] &&
            (best < 0 ||
             ready_times[v] < ready_times[static_cast<size_t>(best)])) {
            best = static_cast<int>(v);
        }
    }
    return best;
}

void
BatchQueue::admitOne()
{
    pending_.push_back(nextArrival_);
    ++arrived_;
    nextArrival_ = drawArrival();
    exhausted_ = nextArrival_ >= cfg_.horizonSeconds;
}

void
BatchQueue::admitUpTo(double t)
{
    while (!exhausted_ && nextArrival_ <= t) {
        admitOne();
    }
}

bool
BatchQueue::acquire(int wid, const ServiceFn& service, BatchTicket* ticket,
                    double* completion, int* busy_at_launch)
{
    RECSTACK_CHECK(wid >= 0 && wid < cfg_.numWorkers,
                   "worker id out of range");
    obs::ScopedSpan span("queue.acquire", {{"worker", wid}});
    std::unique_lock<std::mutex> lock(mu_);
    RECSTACK_CHECK(active_[static_cast<size_t>(wid)],
                   "acquire on a retired worker");
    cv_.wait(lock, [&] { return nextWorker(readyTime_, active_) == wid; });

    // Walk virtual time forward from this worker's free point until the
    // admission step (serve/admission.h) launches a batch or retires
    // the worker. The stream is fully known, so the walk never stalls.
    QueueMetrics& qm = QueueMetrics::get();
    const auto step_at = [&](double now) {
        return admissionStep(
            now, static_cast<int64_t>(pending_.size()),
            pending_.empty() ? 0.0 : pending_.front(),
            exhausted_ ? std::nullopt : std::optional(nextArrival_),
            kWholeStreamKnown, cfg_.maxBatch, cfg_.maxWaitSeconds);
    };
    const double ready = readyTime_[static_cast<size_t>(wid)];
    admitUpTo(ready);
    Admission step = step_at(ready);
    while (step.action == AdmitAction::kAdmitNext) {
        admitOne();
        step = step_at(step.t);
    }
    switch (step.action) {
    case AdmitAction::kRetire:
        active_[static_cast<size_t>(wid)] = false;
        cv_.notify_all();
        return false;
    case AdmitAction::kLaunchFull:
        qm.launchFull.add();
        break;
    case AdmitAction::kLaunchWindow:
        qm.launchWindow.add();
        break;
    case AdmitAction::kLaunchDrain:
        qm.launchDrain.add();
        break;
    default:
        RECSTACK_PANIC("a fully known stream cannot stall");
    }
    const double t = step.t;

    const int64_t batch = step.batch;
    ticket->seq = seq_++;
    ticket->launchTime = t;
    ticket->arrivals.clear();
    ticket->arrivals.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
        ticket->arrivals.push_back(pending_.front());
        pending_.pop_front();
    }

    // Occupancy at launch: workers whose current batch is still in
    // virtual service when this one starts, plus the caller. See
    // busyAtLaunch() in batch_queue.h for the completion-tie
    // convention.
    const int busy =
        busyAtLaunch(readyTime_, active_, static_cast<size_t>(wid), t);

    const double svc = service(*ticket, busy);
    RECSTACK_CHECK(svc > 0.0, "service time must be > 0");
    readyTime_[static_cast<size_t>(wid)] = t + svc;
    *completion = t + svc;
    *busy_at_launch = busy;
    qm.batches.add();
    qm.samples.add(static_cast<uint64_t>(batch));
    if (span.active()) {
        span.arg("batch", batch);
        span.arg("busy", busy);
    }
    cv_.notify_all();
    return true;
}

int
BatchQueue::busyAtLaunch(const std::vector<double>& ready_times,
                         const std::vector<bool>& active, size_t wid,
                         double t)
{
    int busy = 1;  // the caller
    for (size_t v = 0; v < ready_times.size(); ++v) {
        // Strict >: service occupies [launch, completion), so a worker
        // completing exactly at t is idle at t (header contract).
        if (v != wid && active[v] && ready_times[v] > t) {
            ++busy;
        }
    }
    return busy;
}

uint64_t
BatchQueue::samplesArrived() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_;
}

}  // namespace recstack
