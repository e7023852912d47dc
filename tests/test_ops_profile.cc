/**
 * @file
 * Tests of the operator -> KernelProfile lowering: work counts,
 * stream construction, code identities, and framework aliasing.
 */

#include <gtest/gtest.h>

#include "ops/concat.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/fc.h"
#include "ops/gru.h"
#include "ops/matmul.h"
#include "ops/op_costs.h"
#include "ops/reshape.h"

namespace recstack {
namespace {

KernelProfile
profileOf(Operator& op, Workspace& ws)
{
    op.inferShapes(ws);
    return op.profile(ws);
}

TEST(FCProfile, FlopAndStreamAccounting)
{
    Workspace ws;
    ws.set("x", Tensor({8, 32}));
    ws.set("w", Tensor({16, 32}));
    ws.set("b", Tensor({16}));
    FCOp fc("fc", "x", "w", "b", "y");
    const KernelProfile kp = profileOf(fc, ws);

    EXPECT_EQ(kp.opType, "FC");
    EXPECT_EQ(kp.fmaFlops, 2ull * 8 * 16 * 32);
    EXPECT_EQ(kp.gemmWidth, 16u);
    EXPECT_GT(kp.reloadLoadElems, 0u);
    EXPECT_GT(kp.simdScalableOps, 0u);
    // Streams: X read, W read, Y write (+ dispatch metadata).
    EXPECT_GE(kp.streams.size(), 3u);
    EXPECT_EQ(kp.bytesWritten(), 8u * 16 * 4 / 64 * 64);
    EXPECT_EQ(kp.codeRegion, "kernel:FC");
    EXPECT_EQ(kp.dispatchOps, opcost::kDispatchOps);
}

TEST(FCProfile, WeightTrafficScalesWithPanels)
{
    Workspace ws;
    ws.set("w", Tensor({64, 64}));
    ws.set("b", Tensor({64}));

    auto weight_accesses = [&ws](int64_t m) {
        ws.set("x", Tensor({m, 64}));
        FCOp fc("fc", "x", "w", "b", "y");
        fc.inferShapes(ws);
        const KernelProfile kp = fc.profile(ws);
        for (const auto& s : kp.streams) {
            if (s.region == "w") {
                return s.accesses;
            }
        }
        return uint64_t{0};
    };
    // 128 rows = 2 M-tiles -> twice the weight panel traffic of 64.
    EXPECT_EQ(weight_accesses(128), 2 * weight_accesses(64));
}

TEST(SLSProfile, GatherStreamShape)
{
    Workspace ws;
    ws.set("table", Tensor({1000, 16}));
    ws.set("idx", Tensor({40}, DType::kInt64));
    ws.set("len", Tensor({4}, DType::kInt32));
    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "y", 0.8);
    const KernelProfile kp = profileOf(sls, ws);

    const MemStream* gather = nullptr;
    for (const auto& s : kp.streams) {
        if (s.region == "table") {
            gather = &s;
        }
    }
    ASSERT_NE(gather, nullptr);
    EXPECT_EQ(gather->pattern, AccessPattern::kRandom);
    EXPECT_EQ(gather->accesses, 40u);
    EXPECT_EQ(gather->chunkBytes, 16u * 4);
    EXPECT_EQ(gather->footprintBytes, 1000u * 16 * 4);
    EXPECT_DOUBLE_EQ(gather->zipfExponent, 0.8);
    EXPECT_EQ(kp.vecElemOps, 40u * 16);

    // Data-dependent branches must NOT scale with SIMD width.
    bool has_data_branches = false;
    for (const auto& b : kp.branches) {
        if (!b.scalesWithSimd && b.randomness > 0.5) {
            has_data_branches = true;
        }
    }
    EXPECT_TRUE(has_data_branches);
}

TEST(GemmProfile, LoopBranchesScaleWithSimd)
{
    Workspace ws;
    ws.set("x", Tensor({4, 64}));
    ws.set("w", Tensor({64, 64}));
    ws.set("b", Tensor({64}));
    FCOp fc("fc", "x", "w", "b", "y");
    const KernelProfile kp = profileOf(fc, ws);
    bool found = false;
    for (const auto& b : kp.branches) {
        if (b.scalesWithSimd) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(GRUProfile, SerialStepsAndWork)
{
    Workspace ws;
    const int steps = 7;
    ws.set("x", Tensor({steps, 2, 8}));
    ws.set("h0", Tensor({2, 4}));
    ws.set("wx", Tensor({12, 8}));
    ws.set("wh", Tensor({12, 4}));
    ws.set("b", Tensor({12}));
    GRULayerOp gru("gru", "x", "h0", "wx", "wh", "b", "hs", "hl");
    const KernelProfile kp = profileOf(gru, ws);
    EXPECT_EQ(kp.serialSteps, static_cast<uint64_t>(steps));
    EXPECT_EQ(kp.fmaFlops, 2ull * steps * 2 * 12 * (8 + 4));
    EXPECT_EQ(kp.codeRegion, "kernel:GRU");
}

TEST(ReshapeProfile, DispatchOnly)
{
    Workspace ws;
    ws.set("x", Tensor({4, 4}));
    ReshapeOp rs("rs", "x", "y", {16});
    const KernelProfile kp = profileOf(rs, ws);
    EXPECT_EQ(kp.fmaFlops, 0u);
    EXPECT_EQ(kp.vecElemOps, 0u);
    EXPECT_EQ(kp.dispatchOps, opcost::kDispatchOps);
}

TEST(ConcatProfile, StridedOutputStream)
{
    Workspace ws;
    ws.set("a", Tensor({8, 16}));
    ws.set("b", Tensor({8, 16}));
    ConcatOp cat("cat", {"a", "b"}, "y");
    const KernelProfile kp = profileOf(cat, ws);
    bool strided_write = false;
    for (const auto& s : kp.streams) {
        if (s.isWrite && s.pattern == AccessPattern::kStrided) {
            strided_write = true;
        }
    }
    EXPECT_TRUE(strided_write);
    EXPECT_EQ(kp.vecElemOps, 8u * 32);
}

TEST(Profile, DispatchMetadataStreamPresent)
{
    Workspace ws;
    ws.set("x", Tensor({2, 2}));
    UnaryOp relu(UnaryFn::kRelu, "r", "x", "y");
    const KernelProfile kp = profileOf(relu, ws);
    bool meta = false;
    for (const auto& s : kp.streams) {
        if (s.region == "framework:heap") {
            meta = true;
        }
    }
    EXPECT_TRUE(meta);
}

TEST(Profile, DisplayTypeAliasing)
{
    Workspace ws;
    ws.set("x", Tensor({2, 4}));
    ws.set("w", Tensor({3, 4}));
    ws.set("b", Tensor({3}));
    FCOp fc("fc", "x", "w", "b", "y");
    fc.setDisplayType("FusedMatMul");
    const KernelProfile kp = profileOf(fc, ws);
    EXPECT_EQ(kp.opType, "FusedMatMul");
    EXPECT_EQ(fc.type(), "FC");  // real type unchanged
}

TEST(Profile, AccumulateMerges)
{
    KernelProfile a;
    a.fmaFlops = 100;
    a.scalarOps = 10;
    a.streams.push_back({});
    KernelProfile b;
    b.fmaFlops = 50;
    b.vecElemOps = 5;
    b.branches.push_back({});
    a.accumulate(b);
    EXPECT_EQ(a.fmaFlops, 150u);
    EXPECT_EQ(a.vecElemOps, 5u);
    EXPECT_EQ(a.streams.size(), 1u);
    EXPECT_EQ(a.branches.size(), 1u);
}

TEST(Profile, ByteHelpers)
{
    KernelProfile kp;
    MemStream r;
    r.accesses = 4;
    r.chunkBytes = 64;
    kp.streams.push_back(r);
    MemStream w = r;
    w.isWrite = true;
    w.accesses = 2;
    kp.streams.push_back(w);
    EXPECT_EQ(kp.bytesRead(), 256u);
    EXPECT_EQ(kp.bytesWritten(), 128u);
}

TEST(Profile, TotalBranches)
{
    KernelProfile kp;
    kp.branches.push_back({100, 0.9, 0.1, false});
    kp.branches.push_back({50, 0.5, 0.5, true});
    EXPECT_EQ(kp.totalBranches(), 150u);
}

/** Every op type produces a self-consistent profile. */
class ProfileInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(ProfileInvariants, StreamsHaveValidGeometry)
{
    Workspace ws;
    OperatorPtr op;
    switch (GetParam()) {
      case 0:
        ws.set("x", Tensor({4, 8}));
        ws.set("w", Tensor({4, 8}));
        ws.set("b", Tensor({4}));
        op = makeFC("op", "x", "w", "b", "y");
        break;
      case 1:
        ws.set("x", Tensor({4, 8}));
        op = makeRelu("op", "x", "y");
        break;
      case 2:
        ws.set("t", Tensor({64, 8}));
        ws.set("i", Tensor({12}, DType::kInt64));
        ws.set("l", Tensor({3}, DType::kInt32));
        op = makeSparseLengthsReduce(SlsKind::kSum, "op", "t", "", "i",
                                     "l", "y");
        break;
      case 3:
        ws.set("a", Tensor({2, 3, 4}));
        ws.set("b", Tensor({2, 4, 5}));
        op = makeBatchMatMul("op", "a", "b", "y");
        break;
      case 4:
        ws.set("x", Tensor({4, 6}));
        op = makeSoftmax("op", "x", "y");
        break;
      case 5:
        ws.set("a", Tensor({4, 2}));
        ws.set("b", Tensor({4, 3}));
        op = makeConcat("op", {"a", "b"}, "y");
        break;
      case 6:
        ws.set("x", Tensor({3, 4, 5}));
        op = makeTranspose("op", "x", "y");
        break;
      default:
        FAIL();
    }
    op->inferShapes(ws);
    const KernelProfile kp = op->profile(ws);
    EXPECT_FALSE(kp.opType.empty());
    EXPECT_FALSE(kp.opName.empty());
    for (const auto& s : kp.streams) {
        EXPECT_GT(s.chunkBytes, 0u) << kp.opType;
        EXPECT_GT(s.footprintBytes, 0u) << kp.opType;
        EXPECT_FALSE(s.region.empty()) << kp.opType;
    }
    for (const auto& b : kp.branches) {
        EXPECT_GE(b.takenProbability, 0.0);
        EXPECT_LE(b.takenProbability, 1.0);
        EXPECT_GE(b.randomness, 0.0);
        EXPECT_LE(b.randomness, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ProfileInvariants,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace recstack
