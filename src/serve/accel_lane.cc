#include "serve/accel_lane.h"

#include <algorithm>

#include "common/logging.h"

namespace recstack {

AccelLane::AccelLane(QueryScheduler* scheduler, ModelId model,
                     const AccelLaneConfig& cfg)
    : scheduler_(scheduler), model_(model), cfg_(cfg)
{
    RECSTACK_CHECK(scheduler_ != nullptr, "lane needs a scheduler");
    const std::vector<Platform>& platforms =
        scheduler_->sweep()->platforms();
    RECSTACK_CHECK(cfg_.platformIdx < platforms.size(),
                   "lane platform index out of range");
    const Platform& platform = platforms[cfg_.platformIdx];
    kind_ = platform.kind;
    RECSTACK_CHECK(kind_ == PlatformKind::kGpu ||
                       kind_ == PlatformKind::kPim,
                   "lane platform must be an accelerator (GPU or PIM)");
    RECSTACK_CHECK(cfg_.maxBatch > 0, "lane batch cap must be > 0");
    RECSTACK_CHECK(cfg_.maxWaitSeconds >= 0.0,
                   "lane window must be >= 0");
    handoffSeconds_ = std::max(1e-9, kind_ == PlatformKind::kGpu
                                         ? platform.gpu.hostDispatchSec
                                         : platform.pim.hostDispatchSec);
    for (int64_t b : scheduler_->batchGrid()) {
        scheduler_->latency(model_, cfg_.platformIdx, b);
    }
}

void
AccelLane::launch(double trigger, AccelLaunch::Reason reason)
{
    const int64_t batch = std::min<int64_t>(
        cfg_.maxBatch, static_cast<int64_t>(pending_.size()));
    RECSTACK_CHECK(batch > 0, "lane launch with nothing pending");

    // Serialize behind the device: the accelerator runs one batch at
    // a time on the virtual clock.
    const double launch_time = std::max(trigger, readyTime_);
    const double service =
        scheduler_->latency(model_, cfg_.platformIdx, batch);
    const double completion = launch_time + service;

    AccelLaunch rec;
    rec.launchTime = launch_time;
    rec.completionTime = completion;
    rec.batch = batch;
    rec.reason = reason;
    launches_.push_back(rec);

    for (int64_t i = 0; i < batch; ++i) {
        latencies_.push_back(completion - pending_.front().arrival);
        pending_.pop_front();
    }
    samplesServed_ += static_cast<uint64_t>(batch);
    ++batchesServed_;
    busySeconds_ += service;
    lastCompletion_ = std::max(lastCompletion_, completion);
    readyTime_ = completion;
}

void
AccelLane::advanceTo(double now)
{
    while (!pending_.empty() &&
           pending_.front().submit + cfg_.maxWaitSeconds <= now) {
        launch(pending_.front().submit + cfg_.maxWaitSeconds,
               AccelLaunch::Reason::kWindow);
    }
}

void
AccelLane::submit(const BatchTicket& ticket, double now)
{
    // Fire any window expiry due at or before this hand-off, so
    // launches interleave with submissions in virtual-time order and
    // a window expiring exactly now launches without these samples.
    advanceTo(now);
    for (double arrival : ticket.arrivals) {
        pending_.push_back({arrival, now});
    }
    while (static_cast<int64_t>(pending_.size()) >= cfg_.maxBatch) {
        launch(now, AccelLaunch::Reason::kFull);
    }
}

void
AccelLane::drain()
{
    while (!pending_.empty()) {
        launch(pending_.front().submit + cfg_.maxWaitSeconds,
               AccelLaunch::Reason::kDrain);
    }
}

}  // namespace recstack
