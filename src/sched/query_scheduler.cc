#include "sched/query_scheduler.h"

#include <algorithm>

namespace recstack {

double
extrapolateLatencyAboveGrid(int64_t b0, double s0, int64_t b1, double s1,
                            int64_t batch)
{
    const double slope = (s1 - s0) / static_cast<double>(b1 - b0);
    const double linear = s1 + slope * static_cast<double>(batch - b1);
    // Floor: the last knot's per-sample cost scaled to this batch. A
    // healthy grid (latency sub-linear in batch, so the marginal slope
    // stays below the average s1/b1) extrapolates above the floor and
    // is returned unchanged; a noisy segment with s1 < s0 would cross
    // zero at batch = b1 + s1/|slope| and goes negative beyond it.
    const double floor_seconds =
        s1 * static_cast<double>(batch) / static_cast<double>(b1);
    return std::max(linear, floor_seconds);
}

QueryScheduler::QueryScheduler(SweepCache* sweep,
                               std::vector<int64_t> batch_grid)
    : sweep_(sweep), batchGrid_(std::move(batch_grid))
{
    RECSTACK_CHECK(sweep_ != nullptr, "scheduler needs a sweep cache");
    if (batchGrid_.empty()) {
        batchGrid_ = paperBatchSizes();
    }
    RECSTACK_CHECK(std::is_sorted(batchGrid_.begin(), batchGrid_.end()),
                   "batch grid must be ascending");
}

double
QueryScheduler::latency(ModelId model, size_t platform_idx, int64_t batch)
{
    RECSTACK_CHECK(batch > 0, "batch must be positive");
    const int64_t lo_batch = batchGrid_.front();
    const int64_t hi_batch = batchGrid_.back();
    if (batch <= lo_batch) {
        return sweep_->get(model, platform_idx, lo_batch).seconds;
    }
    if (batch >= hi_batch) {
        const double s1 =
            sweep_->get(model, platform_idx, hi_batch).seconds;
        // Anchor the slope on the last knot strictly below hi_batch;
        // a 1-point (or degenerate all-equal) grid has no segment to
        // extrapolate from, so fall back to flat extrapolation.
        size_t anchor = batchGrid_.size() - 1;
        while (anchor > 0 && batchGrid_[anchor - 1] == hi_batch) {
            --anchor;
        }
        if (anchor == 0) {
            return s1;
        }
        const int64_t b0 = batchGrid_[anchor - 1];
        const double s0 = sweep_->get(model, platform_idx, b0).seconds;
        return extrapolateLatencyAboveGrid(b0, s0, hi_batch, s1, batch);
    }
    const auto it = std::lower_bound(batchGrid_.begin(), batchGrid_.end(),
                                     batch);
    const int64_t b1 = *it;
    if (b1 == batch) {
        return sweep_->get(model, platform_idx, batch).seconds;
    }
    const int64_t b0 = *(it - 1);
    const double s0 = sweep_->get(model, platform_idx, b0).seconds;
    const double s1 = sweep_->get(model, platform_idx, b1).seconds;
    const double t =
        static_cast<double>(batch - b0) / static_cast<double>(b1 - b0);
    return s0 + t * (s1 - s0);
}

ScheduleDecision
QueryScheduler::route(ModelId model, int64_t batch, double sla_seconds)
{
    ScheduleDecision best;
    best.batch = batch;
    best.expectedLatency = -1.0;
    for (size_t p = 0; p < sweep_->platforms().size(); ++p) {
        const double lat = latency(model, p, batch);
        if (best.expectedLatency < 0.0 || lat < best.expectedLatency) {
            best.platformIdx = p;
            best.expectedLatency = lat;
        }
    }
    best.meetsSla = best.expectedLatency <= sla_seconds;
    return best;
}

int64_t
QueryScheduler::maxBatchUnderSla(ModelId model, size_t platform_idx,
                                 double sla_seconds)
{
    int64_t best = 0;
    for (int64_t batch : batchGrid_) {
        if (latency(model, platform_idx, batch) <= sla_seconds) {
            best = batch;
        }
    }
    return best;
}

void
QueryScheduler::setThreshold(PlatformKind kind, ModelId model,
                             int64_t threshold)
{
    RECSTACK_CHECK(threshold > 0, "threshold must be positive");
    thresholds_[{kind, model}] = threshold;
}

int64_t
QueryScheduler::threshold(PlatformKind kind, ModelId model) const
{
    const auto it = thresholds_.find({kind, model});
    return it == thresholds_.end() ? kNoThreshold : it->second;
}

ThroughputPoint
QueryScheduler::bestThroughputUnderSla(ModelId model, double sla_seconds)
{
    ThroughputPoint best;
    for (size_t p = 0; p < sweep_->platforms().size(); ++p) {
        for (int64_t batch : batchGrid_) {
            const double lat = latency(model, p, batch);
            if (lat > sla_seconds) {
                continue;
            }
            const double qps = static_cast<double>(batch) / lat;
            if (!best.feasible || qps > best.samplesPerSecond) {
                best.feasible = true;
                best.platformIdx = p;
                best.batch = batch;
                best.latencySeconds = lat;
                best.samplesPerSecond = qps;
            }
        }
    }
    return best;
}

}  // namespace recstack
