#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace recstack {
namespace {

uint64_t splitMix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto& s : state_) {
        s = splitMix64(sm);
    }
}

void
Rng::failZeroBound()
{
    RECSTACK_PANIC("check failed: bound > 0: "
                   "nextBounded needs a positive bound");
}

double
Rng::nextGaussian()
{
    if (haveSpareGaussian_) {
        haveSpareGaussian_ = false;
        return spareGaussian_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spareGaussian_ = v * mul;
    haveSpareGaussian_ = true;
    return u * mul;
}

ZipfSampler::ZipfSampler(uint64_t n, double exponent)
    : n_(n), exponent_(exponent)
{
    RECSTACK_CHECK(n > 0, "zipf population must be positive");
    if (exponent_ <= 0.0) {
        return;  // uniform: sample() and cdf() read no table
    }
    // Build a coarse CDF: split [0, n) into geometric buckets so the
    // head of the distribution (where most mass lives) is finely
    // resolved while the tail stays cheap. Within a bucket we treat
    // the mass as uniform, an approximation that is invisible at the
    // cache-line granularity the simulator consumes indices at.
    constexpr int kBuckets = 64;
    bucketLo_.reserve(kBuckets + 1);
    uint64_t lo = 0;
    uint64_t width = 1;
    while (lo < n_ && bucketLo_.size() < kBuckets) {
        bucketLo_.push_back(lo);
        lo = std::min(n_, lo + width);
        width *= 2;
    }
    bucketLo_.push_back(n_);

    cdf_.assign(bucketLo_.size() - 1, 0.0);
    double total = 0.0;
    for (size_t b = 0; b + 1 < bucketLo_.size(); ++b) {
        // Approximate sum_{k in bucket} (k+1)^-s with the integral.
        const double a = static_cast<double>(bucketLo_[b]) + 1.0;
        const double bnd = static_cast<double>(bucketLo_[b + 1]) + 1.0;
        double mass;
        if (exponent_ == 1.0) {
            mass = std::log(bnd) - std::log(a);
        } else {
            mass = (std::pow(bnd, 1.0 - exponent_) -
                    std::pow(a, 1.0 - exponent_)) / (1.0 - exponent_);
        }
        total += mass;
        cdf_[b] = total;
    }
    for (auto& c : cdf_) {
        c /= total;
    }

    // One merge walk over the slots' lower edges g / kGuideSlots.
    // cdf_.back() is exactly 1, so the bound check only guards
    // against a NaN table.
    size_t b = 0;
    for (size_t g = 0; g < kGuideSlots; ++g) {
        const double edge =
            static_cast<double>(g) / static_cast<double>(kGuideSlots);
        while (b + 1 < cdf_.size() && cdf_[b] < edge) {
            ++b;
        }
        guide_[g] = static_cast<uint8_t>(b);
    }
}

double
ZipfSampler::cdf(uint64_t k) const
{
    if (k == 0) {
        return 0.0;
    }
    if (k >= n_) {
        return 1.0;
    }
    if (exponent_ <= 0.0) {
        return static_cast<double>(k) / static_cast<double>(n_);
    }
    // Locate the bucket holding k and interpolate linearly inside it:
    // within-bucket mass is uniform by construction, so this is the
    // exact CDF of the distribution sample() draws from.
    auto it = std::upper_bound(bucketLo_.begin(), bucketLo_.end(), k);
    const size_t b = static_cast<size_t>(it - bucketLo_.begin()) - 1;
    if (b >= cdf_.size()) {
        return 1.0;
    }
    const double lo_cdf = b == 0 ? 0.0 : cdf_[b - 1];
    const double hi_cdf = cdf_[b];
    const uint64_t lo = bucketLo_[b];
    const uint64_t hi = bucketLo_[b + 1];
    const double frac = static_cast<double>(k - lo) /
                        static_cast<double>(std::max<uint64_t>(1, hi - lo));
    return std::min(1.0, lo_cdf + frac * (hi_cdf - lo_cdf));
}

void
fillZipfIndices(const ZipfSampler& zipf, Rng& rng, int64_t* dst,
                int64_t count)
{
    // Draw through a local copy: dst may alias rng's uint64_t state
    // words, which would force the state through memory per index.
    Rng local = rng;
    for (int64_t i = 0; i < count; ++i) {
        dst[i] = static_cast<int64_t>(zipf.sample(local));
    }
    rng = local;
}

}  // namespace recstack
