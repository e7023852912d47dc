#include "store/spline_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace recstack {
namespace {

/// log2 of the radix table size; clamped down for small key sets so
/// the table never dwarfs the keys it indexes.
constexpr int kRadixBits = 18;

}  // namespace

SplineIndex::SplineIndex(std::vector<uint64_t> sorted_keys,
                         SplineIndexConfig config)
    : config_(config), keys_(std::move(sorted_keys))
{
    RECSTACK_CHECK(config_.maxError >= 1,
                   "spline maxError must be at least 1");
    for (size_t i = 1; i < keys_.size(); ++i) {
        RECSTACK_CHECK(keys_[i - 1] < keys_[i],
                       "spline keys must be strictly increasing (key["
                           << i << "] = " << keys_[i] << ")");
    }
    buildSpline();
    buildRadixTable();

    // Measure the true interpolation error over every key; the lookup
    // search window uses the measured value, so find() stays exact
    // even if floating-point slope arithmetic leaks a slot or two
    // past the configured corridor.
    for (size_t i = 0; i < keys_.size(); ++i) {
        const size_t p = predict(keys_[i]);
        const size_t err = p > i ? p - i : i - p;
        maxErrorObserved_ = std::max(maxErrorObserved_, err);
    }
}

void
SplineIndex::buildSpline()
{
    knots_.clear();
    const size_t n = keys_.size();
    if (n == 0) {
        return;
    }
    knots_.push_back(Knot{keys_[0], 0});
    if (n == 1) {
        return;
    }

    // Greedy spline corridor (RadixSpline / EmbedDB): keep the widest
    // slope interval [lo, hi] through the current base knot that
    // passes within +-maxError of every point seen since; when a
    // point falls outside, the previous point becomes a knot and the
    // corridor restarts from it.
    const double err = static_cast<double>(config_.maxError);
    uint64_t base_x = keys_[0];
    double base_y = 0.0;
    uint64_t prev_x = keys_[0];
    double prev_y = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool corridor_open = false;

    for (size_t i = 1; i < n; ++i) {
        const uint64_t x = keys_[i];
        const double y = static_cast<double>(i);
        const double dx = static_cast<double>(x - base_x);
        const double slope_hi = (y + err - base_y) / dx;
        const double slope_lo = (y - err - base_y) / dx;
        if (!corridor_open) {
            lo = slope_lo;
            hi = slope_hi;
            corridor_open = true;
        } else {
            const double slope = (y - base_y) / dx;
            if (slope < lo || slope > hi) {
                // Previous point is the farthest the corridor
                // reaches; emit it and restart from there.
                knots_.push_back(
                    Knot{prev_x, static_cast<size_t>(prev_y)});
                base_x = prev_x;
                base_y = prev_y;
                const double ndx = static_cast<double>(x - base_x);
                lo = (y - err - base_y) / ndx;
                hi = (y + err - base_y) / ndx;
            } else {
                hi = std::min(hi, slope_hi);
                lo = std::max(lo, slope_lo);
            }
        }
        prev_x = x;
        prev_y = y;
    }
    knots_.push_back(Knot{keys_[n - 1], n - 1});
}

void
SplineIndex::buildRadixTable()
{
    const size_t n = keys_.size();
    if (n == 0) {
        radix_.clear();
        shiftBits_ = 0;
        radixBits_ = 0;
        return;
    }
    // Clamp the table so it never exceeds ~4 entries per key.
    radixBits_ = kRadixBits;
    while (radixBits_ > 1 &&
           (size_t{1} << radixBits_) > 4 * std::max<size_t>(n, 1)) {
        --radixBits_;
    }
    const uint64_t range = keys_.back() - keys_.front();
    const int range_bits =
        range == 0 ? 0 : 64 - std::countl_zero(range);
    shiftBits_ = std::max(0, range_bits - radixBits_);

    const size_t table = size_t{1} << radixBits_;
    radix_.assign(table + 1, 0);
    size_t next = 0;
    for (size_t p = 0; p < table; ++p) {
        while (next < knots_.size() &&
               ((knots_[next].key - keys_.front()) >> shiftBits_) <
                   p) {
            ++next;
        }
        radix_[p] = static_cast<uint32_t>(next);
    }
    radix_[table] = static_cast<uint32_t>(knots_.size());
}

size_t
SplineIndex::predict(uint64_t key) const
{
    const size_t n = keys_.size();
    if (knots_.size() < 2) {
        return 0;
    }
    const uint64_t prefix = (key - keys_.front()) >> shiftBits_;
    const size_t lo_knot =
        radix_[prefix] > 0 ? static_cast<size_t>(radix_[prefix]) - 1
                           : 0;
    const size_t hi_knot = std::min<size_t>(
        knots_.size(), static_cast<size_t>(radix_[prefix + 1]) + 1);
    // Last knot with knot.key <= key inside the radix-narrowed range.
    auto it = std::upper_bound(
        knots_.begin() + static_cast<ptrdiff_t>(lo_knot),
        knots_.begin() + static_cast<ptrdiff_t>(hi_knot), key,
        [](uint64_t k, const Knot& knot) { return k < knot.key; });
    RECSTACK_CHECK(it != knots_.begin() + static_cast<ptrdiff_t>(lo_knot)
                       || lo_knot == 0,
                   "spline radix table missed the segment start");
    const size_t seg =
        it == knots_.begin()
            ? 0
            : static_cast<size_t>(it - knots_.begin()) - 1;
    if (seg + 1 >= knots_.size()) {
        return knots_.back().ordinal;
    }
    const Knot& a = knots_[seg];
    const Knot& b = knots_[seg + 1];
    const double frac =
        static_cast<double>(key - a.key) /
        static_cast<double>(b.key - a.key);
    const double pos =
        static_cast<double>(a.ordinal) +
        frac * static_cast<double>(b.ordinal - a.ordinal);
    const double clamped = std::clamp(
        pos, 0.0, static_cast<double>(n - 1));
    return static_cast<size_t>(std::llround(clamped));
}

size_t
SplineIndex::find(uint64_t key) const
{
    const size_t n = keys_.size();
    if (n == 0 || key < keys_.front() || key > keys_.back()) {
        return kNotFound;
    }
    // The corridor bound holds for present keys; an absent key's
    // insertion point can drift one slot further, so widen by 2.
    const size_t window = maxErrorObserved_ + 2;
    const size_t pos = predict(key);
    const size_t lo = pos > window ? pos - window : 0;
    const size_t hi = std::min(n, pos + window + 1);
    auto it = std::lower_bound(
        keys_.begin() + static_cast<ptrdiff_t>(lo),
        keys_.begin() + static_cast<ptrdiff_t>(hi), key);
    if (it == keys_.end() || *it != key) {
        return kNotFound;
    }
    return static_cast<size_t>(it - keys_.begin());
}

size_t
SplineIndex::findBinarySearch(uint64_t key) const
{
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) {
        return kNotFound;
    }
    return static_cast<size_t>(it - keys_.begin());
}

SplineIndexStats
SplineIndex::stats() const
{
    SplineIndexStats s;
    s.numKeys = keys_.size();
    s.numSegments = knots_.size() > 1 ? knots_.size() - 1 : 0;
    s.radixBits = static_cast<size_t>(radixBits_);
    s.maxErrorBound = config_.maxError;
    s.maxErrorObserved = maxErrorObserved_;
    s.indexBytes =
        knots_.size() * sizeof(Knot) + radix_.size() * sizeof(uint32_t);
    return s;
}

}  // namespace recstack
