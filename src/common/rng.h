#ifndef RECSTACK_COMMON_RNG_H_
#define RECSTACK_COMMON_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation for workload and trace
 * synthesis. Every stochastic component in recstack draws from an Rng
 * seeded explicitly so experiments are exactly reproducible.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace recstack {

/**
 * xoshiro256** PRNG. Fast, high quality, and trivially seedable; the
 * state is expanded from a 64-bit seed with SplitMix64.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); panics when bound is 0. */
    uint64_t nextBounded(uint64_t bound)
    {
        if (bound == 0) [[unlikely]] {
            failZeroBound();
        }
        // Multiply-shift bounded generation (Lemire); bias is negligible
        // for the bounds used here and determinism is what matters.
        const __uint128_t wide = static_cast<__uint128_t>(next()) * bound;
        return static_cast<uint64_t>(wide >> 64);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform float in [lo, hi]. The upper end is reachable:
     * float(u) rounds to 1.0f when u >= 1 - 2^-25, about 3e-8 of
     * draws, and the final add rounds too. The formula stays as it is
     * because every initialized weight, every synthesized dense input
     * and so every golden is a function of it.
     */
    float nextFloat(float lo, float hi)
    {
        return lo + static_cast<float>(nextDouble()) * (hi - lo);
    }

    /** Gaussian(0, 1) via Box-Muller. */
    double nextGaussian();

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    [[noreturn]] static void failZeroBound();

    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
    bool haveSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

/**
 * Zipfian sampler over [0, n): pre-computes the harmonic normalization
 * as a CDF over at most 64 geometric buckets, plus a 256-slot guide
 * table that maps u in [g/256, (g+1)/256) to the first bucket whose
 * CDF reaches g/256. A draw reads its slot and steps forward to the
 * first bucket whose CDF reaches u, the same bucket a binary search
 * over the CDF would find, then draws uniformly inside that bucket.
 * Exponent <= 0 is uniform and builds no tables.
 *
 * Used to model skewed embedding-table access (hot entries), the
 * regime production recommendation traffic exhibits.
 */
class ZipfSampler
{
  public:
    /**
     * @param n        population size (> 0)
     * @param exponent skew parameter s >= 0; s == 0 degenerates to uniform
     */
    ZipfSampler(uint64_t n, double exponent);

    uint64_t sample(Rng& rng) const
    {
        if (exponent_ <= 0.0) {
            return rng.nextBounded(n_);
        }
        const double u = rng.nextDouble();
        // u >= g / kGuideSlots, so the slot never lies past the answer;
        // cdf_.back() is exactly 1 > u, so the scan stops in range.
        size_t b = guide_[static_cast<size_t>(u * kGuideSlots)];
        while (cdf_[b] < u) {
            ++b;
        }
        const uint64_t lo = bucketLo_[std::min(b, bucketLo_.size() - 2)];
        const uint64_t hi = bucketLo_[std::min(b + 1, bucketLo_.size() - 1)];
        const uint64_t span = std::max<uint64_t>(1, hi - lo);
        return lo + rng.nextBounded(span);
    }

    /**
     * P(sample < k) under this sampler's bucketed model — the exact
     * distribution sample() draws from, so analytical expectations
     * (e.g. the hit rate of a cache holding the k hottest rows) can
     * be compared against measured frequencies without re-deriving
     * the harmonic sums. Clamped to [0, 1]; exponent <= 0 gives the
     * uniform k / n.
     */
    double cdf(uint64_t k) const;

    uint64_t population() const { return n_; }
    double exponent() const { return exponent_; }

  private:
    static constexpr size_t kGuideSlots = 256;

    uint64_t n_;
    double exponent_;
    std::vector<double> cdf_;       // coarse CDF over kBuckets buckets
    std::vector<uint64_t> bucketLo_;
    // guide_[g]: first bucket b with cdf_[b] >= g / kGuideSlots.
    std::array<uint8_t, kGuideSlots> guide_{};
};

/**
 * Fill `dst[0, count)` with indices drawn from `zipf`. The single
 * synthesis routine every skewed index stream goes through
 * (workload/batch_generator, store benchmarks, tests) so they all see
 * the identical draw sequence for a given Rng state; ZipfSampler
 * itself degenerates to uniform when its exponent is <= 0.
 */
void fillZipfIndices(const ZipfSampler& zipf, Rng& rng, int64_t* dst,
                     int64_t count);

}  // namespace recstack

#endif  // RECSTACK_COMMON_RNG_H_
