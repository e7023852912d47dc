/**
 * @file
 * Tests of the gshare predictor and the synthetic branch-stream
 * simulation behind Figs. 8 and 15.
 */

#include <gtest/gtest.h>

#include "platform/platform.h"
#include "uarch/branch_predictor.h"

namespace recstack {
namespace {

TEST(Gshare, LearnsAlwaysTaken)
{
    GsharePredictor bp(10, 8);
    int mispredicts = 0;
    for (int i = 0; i < 1000; ++i) {
        mispredicts += bp.predictAndUpdate(0x400, true);
    }
    EXPECT_LT(mispredicts, 5);
}

TEST(Gshare, LearnsAlwaysNotTaken)
{
    GsharePredictor bp(10, 8);
    int mispredicts = 0;
    for (int i = 0; i < 1000; ++i) {
        mispredicts += bp.predictAndUpdate(0x400, false);
    }
    EXPECT_LT(mispredicts, 5);
}

TEST(Gshare, LearnsShortPeriodicPattern)
{
    // T T T N repeating: history correlation makes this learnable.
    GsharePredictor bp(12, 8);
    int mispredicts = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 4) != 3;
        const int m = bp.predictAndUpdate(0x80, taken);
        if (i >= 1000) {
            mispredicts += m;
        }
    }
    EXPECT_LT(mispredicts, 3000 / 20);  // < 5% steady state
}

TEST(Gshare, RandomStreamNearChance)
{
    GsharePredictor bp(12, 10);
    Rng rng(3);
    int mispredicts = 0;
    for (int i = 0; i < 8000; ++i) {
        mispredicts += bp.predictAndUpdate(0x80, rng.nextBool(0.5));
    }
    EXPECT_NEAR(mispredicts / 8000.0, 0.5, 0.06);
}

TEST(Gshare, BiasedRandomBeatsChance)
{
    GsharePredictor bp(12, 10);
    Rng rng(4);
    int mispredicts = 0;
    for (int i = 0; i < 8000; ++i) {
        mispredicts += bp.predictAndUpdate(0x80, rng.nextBool(0.9));
    }
    // Should approach the 10% irreducible rate.
    EXPECT_LT(mispredicts / 8000.0, 0.25);
}

TEST(Gshare, ResetForgets)
{
    GsharePredictor bp(10, 8);
    for (int i = 0; i < 100; ++i) {
        bp.predictAndUpdate(0x10, false);
    }
    EXPECT_FALSE(bp.predict(0x10));
    bp.reset();
    EXPECT_TRUE(bp.predict(0x10));  // back to weakly-taken init
}

TEST(BranchStream, EmptyStreamNoWork)
{
    GsharePredictor bp(10, 8);
    Rng rng(1);
    BranchStream s;
    s.count = 0;
    const auto r = simulateBranchStream(bp, s, 0x1000, rng);
    EXPECT_EQ(r.simulated, 0u);
    EXPECT_EQ(r.mispredicts, 0u);
}

TEST(BranchStream, SampleCapRespected)
{
    GsharePredictor bp(10, 8);
    Rng rng(1);
    BranchStream s;
    s.count = 1000000;
    s.takenProbability = 0.9;
    const auto r = simulateBranchStream(bp, s, 0x1000, rng, 512);
    EXPECT_EQ(r.simulated, 512u);
}

TEST(BranchStream, PredictableLoopsMispredictRarely)
{
    GsharePredictor bp(14, 12);
    Rng rng(2);
    BranchStream loop;
    loop.count = 4000;
    loop.takenProbability = 0.97;
    loop.randomness = 0.02;
    const auto r = simulateBranchStream(bp, loop, 0x2000, rng, 4000);
    EXPECT_LT(r.mispredictRate(), 0.1);
}

TEST(BranchStream, DataDependentBranchesMispredictOften)
{
    GsharePredictor bp(14, 12);
    Rng rng(2);
    BranchStream data;
    data.count = 4000;
    data.takenProbability = 0.85;
    data.randomness = 0.75;
    const auto r = simulateBranchStream(bp, data, 0x3000, rng, 4000);
    EXPECT_GT(r.mispredictRate(), 0.12);
}

TEST(BranchStream, LoopPredictorCoversPatternedComponent)
{
    Rng rng1(5), rng2(5);
    BranchStream loop;
    loop.count = 4000;
    loop.takenProbability = 0.875;  // period-8 loop
    loop.randomness = 0.0;

    GsharePredictor weak(8, 4);
    const auto base = simulateBranchStream(weak, loop, 0x4000, rng1,
                                           4000, false);
    GsharePredictor weak2(8, 4);
    const auto covered = simulateBranchStream(weak2, loop, 0x4000, rng2,
                                              4000, true);
    EXPECT_LE(covered.mispredicts, base.mispredicts);
    EXPECT_LT(covered.mispredictRate(), 0.01);
}

TEST(BranchStream, BroadwellVsCascadeLakeOrdering)
{
    // The CLX predictor configuration (bigger tables + loop
    // predictor) must not mispredict more than BDW's on the same
    // mixed stream.
    const CpuConfig bdw = broadwellConfig();
    const CpuConfig clx = cascadeLakeConfig();
    GsharePredictor pb(bdw.bpTableBits, bdw.bpHistoryBits);
    GsharePredictor pc(clx.bpTableBits, clx.bpHistoryBits);
    Rng r1(6), r2(6);

    BranchStream mixed;
    mixed.count = 6000;
    mixed.takenProbability = 0.85;
    mixed.randomness = 0.4;
    const auto mb = simulateBranchStream(pb, mixed, 0x5000, r1, 6000,
                                         bdw.bpLoopPredictor);
    const auto mc = simulateBranchStream(pc, mixed, 0x5000, r2, 6000,
                                         clx.bpLoopPredictor);
    EXPECT_LT(mc.mispredicts, mb.mispredicts);
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
 * FNV-1a over simulateBranchStream's (simulated, mispredicts) and then
 * the predictor's predict() at each branch site, across every pairing
 * of taken probability (the no-loop ends 0 and 1, periods 5, 2, 10 and
 * 1000), randomness, count and loop predictor. Each stream runs once
 * whole, so the 10^6 streams carry the loop phase through 1000
 * periods, and once more on the trained predictor under the default
 * 2048-branch cap. Recorded on the modulo-indexed loop.
 */
TEST(BranchPredictor, StreamDigestsArePinned)
{
    Fnv f;
    uint64_t stream_id = 0;
    for (bool loop : {false, true}) {
        for (double p : {0.0, 0.2, 0.5, 0.9, 0.999, 1.0}) {
            for (double randomness : {0.0, 0.3, 1.0}) {
                for (uint64_t count : {1ull, 7ull, 2048ull, 1000000ull}) {
                    GsharePredictor bp(12, 10);
                    Rng rng(100 + stream_id);
                    BranchStream s;
                    s.count = count;
                    s.takenProbability = p;
                    s.randomness = randomness;
                    const uint64_t pc_base = 0x1000 + 0x40 * stream_id;
                    const auto r = simulateBranchStream(bp, s, pc_base, rng,
                                                        count, loop);
                    f.mix(r.simulated);
                    f.mix(r.mispredicts);
                    const auto capped = simulateBranchStream(bp, s, pc_base,
                                                             rng, 2048, loop);
                    f.mix(capped.simulated);
                    f.mix(capped.mispredicts);
                    for (uint64_t site = 0; site < 4; ++site) {
                        f.mix(uint64_t{bp.predict(pc_base + 16 * site)});
                    }
                    f.mix(rng.next());
                    ++stream_id;
                }
            }
        }
    }
    EXPECT_EQ(f.h, 0x652cd7e943b6ed92ull) << std::hex << "digest 0x" << f.h;
}

/** Sweep randomness: mispredict rate grows monotonically-ish. */
class RandomnessSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(RandomnessSweep, RateBoundedByRandomness)
{
    GsharePredictor bp(14, 12);
    Rng rng(7);
    BranchStream s;
    s.count = 6000;
    s.takenProbability = 0.8;
    s.randomness = GetParam();
    const auto r = simulateBranchStream(bp, s, 0x6000, rng, 6000);
    // The irreducible part is roughly 2 p (1-p) of the random
    // fraction; allow generous slack for gshare noise.
    EXPECT_LE(r.mispredictRate(), GetParam() * 0.6 + 0.12);
}

INSTANTIATE_TEST_SUITE_P(Levels, RandomnessSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace recstack
