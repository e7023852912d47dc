#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace recstack {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double logsum = 0.0;
    for (double v : values) {
        RECSTACK_CHECK(v > 0.0, "geomean requires positive values, got " << v);
        logsum += std::log(v);
    }
    return std::exp(logsum / static_cast<double>(values.size()));
}

double
percentileOfSorted(const std::vector<double>& sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    RECSTACK_CHECK(p >= 0.0 && p <= 1.0, "quantile must be in [0, 1]");
    const double idx = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace recstack
