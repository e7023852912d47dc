/**
 * @file
 * Unit tests for the set-associative LRU cache against analytically
 * known access traces.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/cache.h"

namespace recstack {
namespace {

TEST(Cache, Geometry)
{
    Cache c(32 * 1024, 8, 64);
    EXPECT_EQ(c.sets(), 64u);
    EXPECT_EQ(c.ways(), 8);
    EXPECT_EQ(c.lineBytes(), 64);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1010));  // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 8 sets of 64B lines -> lines 0, 512, 1024 map to set 0.
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0));      // fill way 0
    EXPECT_FALSE(c.access(512));    // fill way 1
    EXPECT_TRUE(c.access(0));       // touch 0: 512 becomes LRU
    uint64_t victim = 0;
    EXPECT_FALSE(c.access(1024, &victim));  // evicts 512
    EXPECT_EQ(victim, 512u);
    EXPECT_TRUE(c.access(0));       // 0 still resident
    EXPECT_FALSE(c.access(512));    // 512 was evicted
}

TEST(Cache, AssociativityConflicts)
{
    // Direct-mapped: every same-set line evicts the previous one.
    Cache c(512, 1, 64);  // 8 sets
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(512));   // conflicts with 0
    EXPECT_FALSE(c.access(0));     // 0 was evicted
}

TEST(Cache, FullyAssociativeHoldsWorkingSet)
{
    Cache c(512, 8, 64);  // 1 set, 8 ways
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(c.access(i * 64));
    }
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(c.access(i * 64));
    }
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2, 64);
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40));  // miss again
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(1024, 2, 64);
    c.access(0);
    c.access(512);
    // Probing 0 must NOT refresh its LRU position.
    EXPECT_TRUE(c.probe(0));
    uint64_t victim = 0;
    c.access(1024, &victim);
    EXPECT_EQ(victim, 0u);  // 0 was still the LRU victim
    EXPECT_EQ(c.hits(), 0u);  // probes don't count as hits
}

TEST(Cache, InsertWithoutLookup)
{
    Cache c(1024, 2, 64);
    c.insert(0x80);
    EXPECT_TRUE(c.probe(0x80));
    EXPECT_EQ(c.misses(), 0u);  // insert is not a demand access
}

TEST(Cache, InsertEvictsLru)
{
    Cache c(512, 1, 64);
    c.insert(0);
    uint64_t victim = UINT64_MAX;
    c.insert(512, &victim);
    EXPECT_EQ(victim, 0u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(1024, 2, 64);
    c.access(0);
    c.access(0);
    c.reset();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 2304 B / 3 ways / 64 B = 12 sets: the index is line % 12, so
    // lines 0, 12, 24 and 36 share set 0 while line 16 (set 0 under a
    // 16-set mask) lands in set 4.
    Cache c(2304, 3, 64);
    EXPECT_EQ(c.sets(), 12u);
    uint64_t victim = 0;
    for (uint64_t line : {0, 12, 24, 16}) {
        EXPECT_FALSE(c.access(line * 64, &victim));
        EXPECT_EQ(victim, UINT64_MAX);
    }
    EXPECT_FALSE(c.access(36 * 64, &victim));
    EXPECT_EQ(victim, 0u);
    EXPECT_TRUE(c.access(16 * 64));
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 5u);
}

/** FNV-1a over the 8 bytes of each mixed word. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;
    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
        }
    }
};

/**
 * FNV-1a over a seeded access/insert/probe/invalidate sequence: every
 * call's return value, the evicted address it reports (a sentinel
 * when it reports none), and hits()/misses() after the call. The
 * geometries span direct-mapped to 20-way, and 3 ways x 12 sets is
 * the one set count that is not a power of two. Addresses carry a
 * random in-line offset and high tag bits. Recorded on the
 * timestamped Line{tag, lru, valid} cache: any layout must keep
 * exactly this replacement order.
 */
TEST(Cache, ReplacementDigestsArePinned)
{
    struct Geom {
        uint64_t size;
        int ways;
        uint64_t pinned;
    };
    const Geom geoms[] = {
        {512, 1, 0xe099f397736ca3ccull},  // 8 sets
        {2304, 3, 0x913a7f564b41b3e1ull},  // 12 sets
        {4096, 8, 0x3c6ad6784dc0d37eull},  // 8 sets
        {11264, 11, 0x162ad2d57581c23eull},  // 16 sets
        {4096, 16, 0x5e17b741a3d9e985ull},  // 4 sets
        {40960, 20, 0x27b1ee214638f155ull},  // 32 sets
    };
    constexpr uint64_t kNone = 0x5eed5eed5eed5eedull;
    constexpr uint64_t kBase = 0x7f3a00000000ull;
    for (const Geom& g : geoms) {
        Cache c(g.size, g.ways, 64);
        Rng rng(77 + static_cast<uint64_t>(g.ways));
        const uint64_t footprint = g.size / 64 * 3;
        uint64_t cursor = 0;
        Fnv f;
        for (int i = 0; i < 30000; ++i) {
            const uint64_t line = rng.nextBool(0.4)
                                      ? cursor++ % footprint
                                      : rng.nextBounded(footprint);
            const uint64_t addr = kBase + line * 64 + rng.nextBounded(64);
            const uint64_t op = rng.nextBounded(10);
            uint64_t evicted = kNone;
            f.mix(op);
            if (op < 5) {
                f.mix(uint64_t{c.access(addr, &evicted)});
            } else if (op == 5) {
                f.mix(uint64_t{c.access(addr)});
            } else if (op < 8) {
                c.insert(addr, &evicted);
            } else if (op == 8) {
                f.mix(uint64_t{c.probe(addr)});
            } else {
                c.invalidate(addr);
            }
            f.mix(evicted);
            f.mix(c.hits());
            f.mix(c.misses());
        }
        EXPECT_GT(c.hits(), 0u);
        EXPECT_GT(c.misses(), c.sets() * static_cast<uint64_t>(g.ways));
        c.reset();
        EXPECT_EQ(c.hits() + c.misses(), 0u);
        EXPECT_FALSE(c.probe(kBase));
        EXPECT_EQ(f.h, g.pinned)
            << g.size << " B / " << g.ways << " ways" << std::hex
            << " digest 0x" << f.h;
    }
}

TEST(Cache, RejectsNonPowerOfTwoLineSize)
{
    EXPECT_DEATH(Cache(1024, 2, 48), "power of two");
}

/** Parameterized sweep: streaming through 2x capacity always misses
 *  on revisit; working set at half capacity always hits. */
struct GeomParam {
    uint64_t size;
    int ways;
};

class CacheGeometry : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(CacheGeometry, CapacityBehaviour)
{
    const auto [size, ways] = GetParam();
    Cache c(size, ways, 64);

    // Working set = half capacity: second pass all hits.
    const uint64_t half_lines = size / 64 / 2;
    for (uint64_t i = 0; i < half_lines; ++i) {
        c.access(i * 64);
    }
    uint64_t hits_before = c.hits();
    for (uint64_t i = 0; i < half_lines; ++i) {
        c.access(i * 64);
    }
    EXPECT_EQ(c.hits() - hits_before, half_lines);

    // Working set = 2x capacity streamed twice: LRU guarantees the
    // second pass misses everything (cyclic thrash).
    c.reset();
    const uint64_t big_lines = size / 64 * 2;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < big_lines; ++i) {
            c.access(i * 64);
        }
    }
    EXPECT_EQ(c.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeomParam{4096, 1}, GeomParam{4096, 4},
                      GeomParam{32 * 1024, 8}, GeomParam{256 * 1024, 8},
                      GeomParam{1024 * 1024, 16}));

}  // namespace
}  // namespace recstack
