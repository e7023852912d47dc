/**
 * @file
 * Unit tests for the set-associative LRU cache: analytically known
 * access traces, pinned replacement digests, and a differential check
 * of every hit and victim against a reference list-based LRU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <vector>

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
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40));  // already gone
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

TEST(Cache, RejectsSizeThatIsNotWholeSets)
{
    // 1000 B / (2 ways x 64 B) leaves 104 B that no set could hold.
    EXPECT_DEATH(Cache(1000, 2, 64), "not a whole number");
}

TEST(Cache, RejectsMoreWaysThanTheHeadIndexes)
{
    EXPECT_DEATH(Cache(256 * 64, 256, 64), "ring head");
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

/** Reference LRU cache: per-set ordered lists, obviously correct. */
class ReferenceLru
{
  public:
    ReferenceLru(uint64_t size_bytes, int ways, int line_bytes = 64)
        : ways_(static_cast<size_t>(ways)),
          sets_(size_bytes /
                (static_cast<uint64_t>(ways) *
                 static_cast<uint64_t>(line_bytes))),
          lineBytes_(static_cast<uint64_t>(line_bytes)),
          lru_(sets_)
    {
    }

    /** Hit, or fill at MRU and report the LRU victim (UINT64_MAX: none). */
    bool access(uint64_t addr, uint64_t* evicted)
    {
        const uint64_t line = addr / lineBytes_;
        auto& order = lru_[line % sets_];
        for (auto it = order.begin(); it != order.end(); ++it) {
            if (*it == line) {
                order.erase(it);
                order.push_front(line);
                return true;
            }
        }
        *evicted = UINT64_MAX;
        order.push_front(line);
        if (order.size() > ways_) {
            *evicted = order.back() * lineBytes_;
            order.pop_back();
        }
        return false;
    }

    bool probe(uint64_t addr) const
    {
        const uint64_t line = addr / lineBytes_;
        const auto& order = lru_[line % sets_];
        return std::find(order.begin(), order.end(), line) != order.end();
    }

    void erase(uint64_t addr)
    {
        const uint64_t line = addr / lineBytes_;
        lru_[line % sets_].remove(line);
    }

    /** Lines of set @c set, most recently used first. */
    const std::list<uint64_t>& order(uint64_t set) const
    {
        return lru_[set];
    }

  private:
    size_t ways_;
    uint64_t sets_;
    uint64_t lineBytes_;
    std::vector<std::list<uint64_t>> lru_;
};

/**
 * Random trace: every access, insert, probe and invalidate must agree
 * with the reference model, including the victim each fill evicts.
 * Geometries cover direct-mapped through 20-way, and 12 sets (the
 * modulo index path) next to power-of-two set counts.
 */
class CacheDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheDifferential, MatchesReferenceLru)
{
    struct Geom {
        uint64_t size;
        int ways;
    };
    const Geom geoms[] = {{1024, 1},  {2048, 2},   {8192, 4},
                          {32768, 8}, {2304, 3},   {11264, 11},
                          {40960, 20}};
    constexpr int kGeoms = sizeof(geoms) / sizeof(geoms[0]);
    const Geom g = geoms[GetParam() % kGeoms];

    Cache cache(g.size, g.ways);
    ReferenceLru ref(g.size, g.ways);
    Rng rng(1000 + static_cast<uint64_t>(GetParam()));

    // Mix of sequential runs and random jumps over a footprint ~4x
    // the cache to exercise evictions heavily.
    const uint64_t footprint_lines = g.size / 64 * 4;
    uint64_t cursor = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t line;
        if (rng.nextBool(0.5)) {
            line = cursor++ % footprint_lines;
        } else {
            line = rng.nextBounded(footprint_lines);
        }
        const uint64_t addr = line * 64;
        const uint64_t op = rng.nextBounded(10);
        if (op < 6) {
            uint64_t got = 0;
            uint64_t want = 0;
            const bool hit = ref.access(addr, &want);
            ASSERT_EQ(cache.access(addr, &got), hit)
                << "divergence at access " << i << " addr " << addr;
            if (!hit) {
                ASSERT_EQ(got, want) << "victim at access " << i;
            }
        } else if (op < 8) {
            uint64_t got = 0;
            uint64_t want = 0;
            const bool present = ref.access(addr, &want);
            cache.insert(addr, &got);
            if (!present) {
                ASSERT_EQ(got, want) << "victim at insert " << i;
            }
        } else if (op == 8) {
            ASSERT_EQ(cache.probe(addr), ref.probe(addr))
                << "divergence at probe " << i << " addr " << addr;
        } else {
            cache.invalidate(addr);
            ref.erase(addr);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Traces, CacheDifferential,
                         ::testing::Range(0, 14));

/**
 * Replays @c ways fresh fills on copies of two one-set caches: every
 * valid line leaves LRU first, so the victim sequence spells out the
 * whole recency order of the set.
 */
void
expectSameRecencyOrder(const Cache& cache, const ReferenceLru& ref,
                       int step)
{
    Cache c = cache;
    ReferenceLru r = ref;
    for (int k = 0; k < cache.ways(); ++k) {
        const uint64_t addr = ((1u << 20) + k) * 64;
        uint64_t got = 0;
        uint64_t want = 0;
        ASSERT_FALSE(r.access(addr, &want));
        ASSERT_FALSE(c.access(addr, &got));
        ASSERT_EQ(got, want) << "recency position " << cache.ways() - 1 - k
                             << " after step " << step;
    }
}

/**
 * One set of 8 and one of 20 ways, driven through more than 3 x ways
 * fills so the MRU slot wraps around the set several times. Between
 * fills, a hit lands at every recency position, and an invalidation
 * removes every position, with and without empty ways in the set.
 * After every step the full recency order must equal the reference.
 */
TEST(Cache, RecencyOrderSurvivesWrap)
{
    for (int ways : {8, 20}) {
        SCOPED_TRACE(ways);
        const uint64_t size = static_cast<uint64_t>(ways) * 64;
        Cache cache(size, ways);
        ReferenceLru ref(size, ways);
        ASSERT_EQ(cache.sets(), 1u);
        uint64_t next_line = 1;
        int step = 0;
        int fills = 0;
        auto lineAt = [&](int position) {
            auto it = ref.order(0).begin();
            std::advance(it, position);
            return *it * 64;
        };
        // Each step is checked against the full reference order.
        auto check = [&] {
            ASSERT_NO_FATAL_FAILURE(
                expectSameRecencyOrder(cache, ref, step++));
        };
        auto fill = [&] {
            const uint64_t addr = next_line++ * 64;
            uint64_t got = 0;
            uint64_t want = 0;
            ASSERT_FALSE(ref.access(addr, &want));
            ASSERT_FALSE(cache.access(addr, &got));
            ASSERT_EQ(got, want) << "victim at step " << step;
            ++fills;
            check();
        };
        auto hit = [&](int position) {
            const uint64_t addr = lineAt(position);
            uint64_t unused = 0;
            ASSERT_TRUE(ref.access(addr, &unused));
            ASSERT_TRUE(cache.access(addr));
            check();
        };
        auto drop = [&](int position) {
            const uint64_t addr = lineAt(position);
            ref.erase(addr);
            cache.invalidate(addr);
            EXPECT_FALSE(cache.probe(addr));
            check();
        };

        for (int round = 0; round < 2; ++round) {
            // A hit at each position, each after a fill that moves the
            // MRU slot by one (the set fills up during round 0).
            for (int w = 0; w < ways; ++w) {
                fill();
                hit(w);
            }
            // Invalidate each position of the full set, hit the line
            // now at that position while the set has a hole, refill.
            for (int w = 0; w < ways; ++w) {
                drop(w);
                if (w < ways - 1) {
                    hit(w);
                }
                fill();
            }
            // Drain to three lines, rotate them, then refill.
            for (int w = ways - 1; w >= 3; --w) {
                drop(w);
            }
            for (int k = 0; k < 3; ++k) {
                hit(2);
            }
            for (int w = 3; w < ways; ++w) {
                fill();
            }
        }
        EXPECT_GT(fills, 3 * ways);
    }
}

}  // namespace
}  // namespace recstack
