/**
 * @file
 * Unit tests for common utilities: RNG, Zipf sampler, statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace recstack {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next();
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 17ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.nextBounded(bound), bound);
        }
    }
}

TEST(Rng, BoundedRoughlyUniform)
{
    Rng rng(99);
    constexpr int kBuckets = 8;
    int counts[kBuckets] = {};
    constexpr int kDraws = 80000;
    for (int i = 0; i < kDraws; ++i) {
        ++counts[rng.nextBounded(kBuckets)];
    }
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        min = std::min(min, v);
        max = std::max(max, v);
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
}

TEST(Rng, NextBoundedRejectsZero)
{
    Rng rng(1);
    EXPECT_DEATH(rng.nextBounded(0), "positive bound");
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i) {
        stat.add(rng.nextGaussian());
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.03);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(Rng, BernoulliBias)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        hits += rng.nextBool(0.3);
    }
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Zipf, UniformWhenExponentZero)
{
    Rng rng(3);
    ZipfSampler zipf(1000, 0.0);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(static_cast<double>(zipf.sample(rng)));
    }
    EXPECT_NEAR(stat.mean(), 499.5, 25.0);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(4);
    for (double s : {0.5, 0.9, 1.0, 1.3}) {
        ZipfSampler zipf(5000, s);
        for (int i = 0; i < 2000; ++i) {
            EXPECT_LT(zipf.sample(rng), 5000u);
        }
    }
}

TEST(Zipf, HigherExponentConcentratesHead)
{
    Rng rng(6);
    auto head_mass = [&rng](double exponent) {
        ZipfSampler zipf(100000, exponent);
        int head = 0;
        for (int i = 0; i < 20000; ++i) {
            head += zipf.sample(rng) < 1000;
        }
        return head;
    };
    const int mild = head_mass(0.5);
    const int strong = head_mass(1.2);
    EXPECT_GT(strong, mild * 2);
}

TEST(Zipf, SingleElementPopulation)
{
    Rng rng(8);
    ZipfSampler zipf(1, 1.0);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(zipf.sample(rng), 0u);
    }
}

/** FNV-1a over the 8 bytes of each mixed word. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;
    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    }
    void mix(double v) { mix(std::bit_cast<uint64_t>(v)); }
};

/**
 * FNV-1a per exponent over every population shape: 4096 sample()
 * draws, cdf() at bucket edges (0, 1, 7), inside a bucket (2), at n/3,
 * n - 1, n and n + 1, then one fillZipfIndices call and the
 * generator's next raw draw after it, which pins the generator state
 * fillZipfIndices hands back. n = 1..3 exercise the one- and two-bucket clamps; 2^40 fills
 * all 64 geometric buckets; exponent 0 is the uniform path.
 */
TEST(Zipf, DrawDigestsArePinned)
{
    struct Skew {
        double exponent;
        uint64_t pinned;
    };
    const Skew skews[] = {
        {0.0, 0x7ab33aa3b677bf90ull},
        {0.5, 0xd9130024367be543ull},
        {0.75, 0x9070786de1fdaf92ull},
        {1.0, 0xccf82f1e7abd56e2ull},
        {1.2, 0xbc9363216d075916ull},
        {3.0, 0x6e7ba1ee562de3fcull},
    };
    const uint64_t pops[] = {1,     2,         3,          1000,
                             10000, 1ull << 20, 1ull << 40};
    for (const Skew& sk : skews) {
        Fnv f;
        for (uint64_t n : pops) {
            const ZipfSampler zipf(n, sk.exponent);
            Rng rng(n * 31 + static_cast<uint64_t>(sk.exponent * 100));
            for (int i = 0; i < 4096; ++i) {
                f.mix(zipf.sample(rng));
            }
            for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                               uint64_t{7}, n / 3, n - 1, n, n + 1}) {
                f.mix(zipf.cdf(k));
            }
            std::vector<int64_t> idx(1000);
            fillZipfIndices(zipf, rng, idx.data(),
                            static_cast<int64_t>(idx.size()));
            for (int64_t v : idx) {
                f.mix(static_cast<uint64_t>(v));
            }
            f.mix(rng.next());
        }
        EXPECT_EQ(f.h, sk.pinned) << "exponent " << sk.exponent
                                  << " digest 0x" << std::hex << f.h;
    }
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(v);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Percentile, InterpolatesSortedSample)
{
    const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.25), 2.0);
    // Linear interpolation between ranks.
    EXPECT_DOUBLE_EQ(percentileOfSorted(sorted, 0.1), 1.4);
}

TEST(Percentile, EdgeCases)
{
    EXPECT_EQ(percentileOfSorted({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentileOfSorted({7.0}, 0.99), 7.0);
    EXPECT_DEATH(percentileOfSorted({1.0}, 1.5), "quantile");
}

/** Zipf skew parameter sweep: all draws valid, mean decreases. */
class ZipfSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSweep, MeanDecreasesWithSkew)
{
    Rng rng(42);
    ZipfSampler uniform(10000, 0.0);
    ZipfSampler skewed(10000, GetParam());
    RunningStat u, s;
    for (int i = 0; i < 20000; ++i) {
        u.add(static_cast<double>(uniform.sample(rng)));
        s.add(static_cast<double>(skewed.sample(rng)));
    }
    EXPECT_LT(s.mean(), u.mean());
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSweep,
                         ::testing::Values(0.4, 0.7, 0.9, 1.1, 1.4));

}  // namespace
}  // namespace recstack
