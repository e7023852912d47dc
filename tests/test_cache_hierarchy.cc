/**
 * @file
 * Tests of the three-level hierarchy, including the inclusive
 * (Broadwell) vs exclusive (Cascade Lake) L3 policies of Table II.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "uarch/cache_hierarchy.h"

namespace recstack {
namespace {

CpuConfig
tinyConfig(InclusionPolicy policy)
{
    CpuConfig cfg;
    cfg.l1d = {1024, 2, 4};
    cfg.l2 = {4 * 1024, 4, 12};
    cfg.l3 = {16 * 1024, 8, 40};
    cfg.l3Policy = policy;
    return cfg;
}

TEST(CacheHierarchy, FirstTouchMissesToDram)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    EXPECT_EQ(h.access(0x10000, false), HitLevel::kDram);
}

TEST(CacheHierarchy, SecondTouchHitsL1)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0x10000, false);
    EXPECT_EQ(h.access(0x10000, false), HitLevel::kL1);
}

TEST(CacheHierarchy, L1EvictedLineHitsInL2)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    // Stream 2 KB (> L1 1 KB) to push line 0 out of L1 but not L2.
    for (uint64_t i = 1; i < 32; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL2);
}

TEST(CacheHierarchy, L2EvictedLineHitsInL3)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    // Stream 8 KB (> L2 4 KB, < L3 16 KB).
    for (uint64_t i = 1; i < 128; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL3);
}

TEST(CacheHierarchy, InclusiveL3EvictionBackInvalidates)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    EXPECT_EQ(h.access(0, false), HitLevel::kL1);
    // Stream well past L3 capacity so line 0 leaves L3; inclusion
    // must purge it from L1/L2 as well -> next access goes to DRAM.
    for (uint64_t i = 1; i < 1024; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kDram);
}

TEST(CacheHierarchy, ExclusiveL3HoldsL2Victims)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kExclusive));
    h.access(0, false);
    // Push line 0 out of L2 (stream 8 KB); exclusively, the victim
    // moves into L3.
    for (uint64_t i = 1; i < 128; ++i) {
        h.access(i * 64, false);
    }
    EXPECT_EQ(h.access(0, false), HitLevel::kL3);
    // After the L3 hit the line moved back up; L3 copy is gone, so a
    // quick re-touch hits L1.
    EXPECT_EQ(h.access(0, false), HitLevel::kL1);
}

TEST(CacheHierarchy, ExclusiveEffectiveCapacityExceedsL3Alone)
{
    // Working set just under L2 + L3 size fits the exclusive
    // hierarchy but overflows the inclusive one (where L3 duplicates
    // L2 contents).
    const uint64_t lines = (4 * 1024 + 16 * 1024) / 64 - 32;  // 288

    CacheHierarchy ex(tinyConfig(InclusionPolicy::kExclusive));
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t i = 0; i < lines; ++i) {
            ex.access(i * 64, false);
        }
    }
    uint64_t ex_dram = 0;
    for (uint64_t i = 0; i < lines; ++i) {
        ex_dram += ex.access(i * 64, false) == HitLevel::kDram;
    }

    CacheHierarchy in(tinyConfig(InclusionPolicy::kInclusive));
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t i = 0; i < lines; ++i) {
            in.access(i * 64, false);
        }
    }
    uint64_t in_dram = 0;
    for (uint64_t i = 0; i < lines; ++i) {
        in_dram += in.access(i * 64, false) == HitLevel::kDram;
    }
    EXPECT_LT(ex_dram, in_dram);
}

TEST(CacheHierarchy, WritesAllocateLikeReads)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0x400, true);
    EXPECT_EQ(h.access(0x400, false), HitLevel::kL1);
}

TEST(CacheHierarchy, ResetColdsEverything)
{
    CacheHierarchy h(tinyConfig(InclusionPolicy::kInclusive));
    h.access(0, false);
    h.reset();
    EXPECT_EQ(h.access(0, false), HitLevel::kDram);
}

TEST(CacheHierarchy, TableIIConfigsConstruct)
{
    CacheHierarchy bdw(broadwellConfig());
    CacheHierarchy clx(cascadeLakeConfig());
    EXPECT_EQ(bdw.l3().sizeBytes(), 40ull * 1024 * 1024);
    EXPECT_EQ(clx.l2().sizeBytes(), 1024ull * 1024);
    EXPECT_EQ(bdw.access(0, false), HitLevel::kDram);
    EXPECT_EQ(clx.access(0, false), HitLevel::kDram);
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
 * FNV-1a over a seeded mixed trace through the Table II hierarchies,
 * Broadwell (inclusive L3) and Cascade Lake (exclusive L3): every
 * access's HitLevel, plus each level's hits()/misses() every 1024
 * accesses and at the end. A third of the trace cycles 40 lines
 * through each of 48 sets (a 2 MB stride maps to one set at every
 * level), which overflows even the 20-way L3, so back-invalidation and
 * victim fills both run; the rest mixes a hot set, a sequential
 * stream and random lines over 48 MB. Recorded on the timestamped
 * Line{tag, lru, valid} cache: any cache layout must keep exactly
 * these levels.
 */
TEST(CacheHierarchy, LevelDigestsArePinned)
{
    struct Case {
        const char* name;
        CpuConfig cfg;
        uint64_t pinned;
    };
    const Case cases[] = {
        {"broadwell", broadwellConfig(), 0x0c43ddb0f3b8e37cull},
        {"cascade-lake", cascadeLakeConfig(), 0x1f961189c88ccd96ull},
    };
    constexpr uint64_t kBase = 0x5a0000000000ull;
    constexpr uint64_t kStride = 2ull << 20;
    constexpr uint64_t kRegionLines = (48ull << 20) / 64;
    for (const Case& c : cases) {
        CacheHierarchy h(c.cfg);
        Rng rng(2024);
        uint64_t cursor = 0;
        uint64_t levels[4] = {0, 0, 0, 0};
        Fnv f;
        auto mixCounters = [&] {
            for (const Cache* cache : {&h.l1(), &h.l2(), &h.l3()}) {
                f.mix(cache->hits());
                f.mix(cache->misses());
            }
        };
        for (int i = 0; i < 200000; ++i) {
            const uint64_t kind = rng.nextBounded(6);
            uint64_t addr;
            if (kind < 2) {
                addr = kBase + rng.nextBounded(48) * 64 +
                       rng.nextBounded(40) * kStride;
            } else if (kind == 2) {
                addr = kBase + (kRegionLines + rng.nextBounded(512)) * 64;
            } else if (kind == 3) {
                addr = kBase + (cursor++ % kRegionLines) * 64;
            } else {
                addr = kBase + rng.nextBounded(kRegionLines) * 64;
            }
            const HitLevel level =
                h.access(addr + rng.nextBounded(64), rng.nextBool(0.3));
            ++levels[static_cast<int>(level)];
            f.mix(static_cast<uint64_t>(level));
            if ((i & 1023) == 1023) {
                mixCounters();
            }
        }
        mixCounters();
        for (uint64_t n : levels) {
            EXPECT_GT(n, 0u) << c.name;
        }
        EXPECT_EQ(f.h, c.pinned)
            << c.name << std::hex << " digest 0x" << f.h;
    }
}

}  // namespace
}  // namespace recstack
