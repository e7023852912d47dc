/**
 * @file
 * Numerical correctness tests for every operator, against
 * hand-computed or independently-computed references.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.h"

#include "ops/concat.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/fc.h"
#include "ops/gru.h"
#include "ops/matmul.h"
#include "ops/reshape.h"

namespace recstack {
namespace {

/** Run one op (shape inference + numerics). */
void
runOp(Operator& op, Workspace& ws)
{
    op.inferShapes(ws);
    op.run(ws);
}

TEST(FCOp, MatchesHandComputedGemm)
{
    Workspace ws;
    // X [2,3], W [2,3], b [2]
    ws.set("x", Tensor::fromFloats({2, 3}, {1, 2, 3, 4, 5, 6}));
    ws.set("w", Tensor::fromFloats({2, 3}, {1, 0, -1, 0.5, 0.5, 0.5}));
    ws.set("b", Tensor::fromFloats({2}, {10, -1}));
    FCOp fc("fc", "x", "w", "b", "y");
    runOp(fc, ws);

    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 1 * 1 + 2 * 0 + 3 * -1 + 10);  // 8
    EXPECT_FLOAT_EQ(y.at({0, 1}), 0.5 * (1 + 2 + 3) - 1);        // 2
    EXPECT_FLOAT_EQ(y.at({1, 0}), 4 - 6 + 10);                   // 8
    EXPECT_FLOAT_EQ(y.at({1, 1}), 0.5 * 15 - 1);                 // 6.5
}

TEST(FCOp, ShapeMismatchPanics)
{
    Workspace ws;
    ws.set("x", Tensor({2, 3}));
    ws.set("w", Tensor({2, 4}));  // K mismatch
    ws.set("b", Tensor({2}));
    FCOp fc("fc", "x", "w", "b", "y");
    EXPECT_DEATH(fc.inferShapes(ws), "K mismatch");
}

TEST(UnaryOps, ReluSigmoidTanh)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({4}, {-2, -0.5, 0, 3}));

    UnaryOp relu(UnaryFn::kRelu, "r", "x", "yr");
    runOp(relu, ws);
    const float* yr = ws.get("yr").data<float>();
    EXPECT_FLOAT_EQ(yr[0], 0);
    EXPECT_FLOAT_EQ(yr[1], 0);
    EXPECT_FLOAT_EQ(yr[3], 3);

    UnaryOp sig(UnaryFn::kSigmoid, "s", "x", "ys");
    runOp(sig, ws);
    const float* ys = ws.get("ys").data<float>();
    EXPECT_NEAR(ys[2], 0.5, 1e-6);
    EXPECT_NEAR(ys[3], 1.0 / (1.0 + std::exp(-3.0)), 1e-6);

    UnaryOp th(UnaryFn::kTanh, "t", "x", "yt");
    runOp(th, ws);
    EXPECT_NEAR(ws.get("yt").data<float>()[0], std::tanh(-2.0), 1e-6);
}

TEST(BinaryOps, AddSubMul)
{
    Workspace ws;
    ws.set("a", Tensor::fromFloats({2, 2}, {1, 2, 3, 4}));
    ws.set("b", Tensor::fromFloats({2, 2}, {10, 20, 30, 40}));

    BinaryOp add(BinaryFn::kAdd, "add", "a", "b", "ya");
    runOp(add, ws);
    EXPECT_FLOAT_EQ(ws.get("ya").at({1, 1}), 44);

    BinaryOp sub(BinaryFn::kSub, "sub", "a", "b", "ysb");
    runOp(sub, ws);
    EXPECT_FLOAT_EQ(ws.get("ysb").at({0, 1}), -18);

    BinaryOp mul(BinaryFn::kMul, "mul", "a", "b", "ym");
    runOp(mul, ws);
    EXPECT_FLOAT_EQ(ws.get("ym").at({1, 0}), 90);

    // [3, 13]: 39 elements, so a vector tier runs whole 8-lane blocks
    // and a 7-element tail. Every element must equal the scalar
    // expression bit for bit.
    Rng rng(5);
    std::vector<float> av(39);
    std::vector<float> bv(39);
    for (size_t i = 0; i < av.size(); ++i) {
        av[i] = rng.nextFloat(-3.0f, 3.0f);
        bv[i] = rng.nextFloat(-3.0f, 3.0f);
    }
    ws.set("oa", Tensor::fromFloats({3, 13}, av));
    ws.set("ob", Tensor::fromFloats({3, 13}, bv));
    for (const BinaryFn fn : {BinaryFn::kAdd, BinaryFn::kSub, BinaryFn::kMul}) {
        BinaryOp op(fn, "odd", "oa", "ob", "oy");
        runOp(op, ws);
        const float* y = ws.get("oy").data<float>();
        for (size_t i = 0; i < av.size(); ++i) {
            const float ref = fn == BinaryFn::kAdd   ? av[i] + bv[i]
                              : fn == BinaryFn::kSub ? av[i] - bv[i]
                                                     : av[i] * bv[i];
            EXPECT_EQ(std::bit_cast<uint32_t>(y[i]),
                      std::bit_cast<uint32_t>(ref))
                << op.type() << " element " << i;
        }
    }
}

TEST(BinaryOps, ColumnBroadcast)
{
    Workspace ws;
    ws.set("a", Tensor::fromFloats({2, 3}, {1, 2, 3, 4, 5, 6}));
    ws.set("s", Tensor::fromFloats({2, 1}, {10, 100}));
    BinaryOp mul(BinaryFn::kMul, "mul", "a", "s", "y");
    runOp(mul, ws);
    const Tensor& y = ws.get("y");
    EXPECT_FLOAT_EQ(y.at({0, 2}), 30);
    EXPECT_FLOAT_EQ(y.at({1, 0}), 400);
}

TEST(BinaryOps, ShapeMismatchPanics)
{
    Workspace ws;
    ws.set("a", Tensor({2, 3}));
    ws.set("b", Tensor({3, 2}));
    BinaryOp add(BinaryFn::kAdd, "add", "a", "b", "y");
    EXPECT_DEATH(add.inferShapes(ws), "shape mismatch");
}

TEST(SumOp, NAryAccumulation)
{
    Workspace ws;
    ws.set("a", Tensor::fromFloats({2}, {1, 2}));
    ws.set("b", Tensor::fromFloats({2}, {10, 20}));
    ws.set("c", Tensor::fromFloats({2}, {100, 200}));
    SumOp sum("sum", {"a", "b", "c"}, "y");
    runOp(sum, ws);
    EXPECT_FLOAT_EQ(ws.get("y").data<float>()[0], 111);
    EXPECT_FLOAT_EQ(ws.get("y").data<float>()[1], 222);
}

TEST(ConcatOp, Axis1Layout)
{
    Workspace ws;
    ws.set("a", Tensor::fromFloats({2, 2}, {1, 2, 3, 4}));
    ws.set("b", Tensor::fromFloats({2, 1}, {9, 8}));
    ConcatOp cat("cat", {"a", "b"}, "y");
    runOp(cat, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 3}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 1);
    EXPECT_FLOAT_EQ(y.at({0, 2}), 9);
    EXPECT_FLOAT_EQ(y.at({1, 2}), 8);
}

TEST(ConcatOp, BatchMismatchPanics)
{
    Workspace ws;
    ws.set("a", Tensor({2, 2}));
    ws.set("b", Tensor({3, 2}));
    ConcatOp cat("cat", {"a", "b"}, "y");
    EXPECT_DEATH(cat.inferShapes(ws), "batch mismatch");
}

TEST(SparseLengthsSumOp, PoolsSegments)
{
    Workspace ws;
    // 4-row table of dim 2.
    ws.set("table",
           Tensor::fromFloats({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40}));
    ws.set("idx", Tensor::fromInt64s({3}, {0, 3, 1}));
    ws.set("len", Tensor::fromInt32s({2}, {2, 1}));
    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "y");
    runOp(sls, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 1 + 4);   // rows 0 + 3
    EXPECT_FLOAT_EQ(y.at({0, 1}), 10 + 40);
    EXPECT_FLOAT_EQ(y.at({1, 0}), 2);       // row 1
}

TEST(SparseLengthsSumOp, IndexOutOfRangePanics)
{
    Workspace ws;
    ws.set("table", Tensor({2, 2}));
    ws.set("idx", Tensor::fromInt64s({1}, {5}));
    ws.set("len", Tensor::fromInt32s({1}, {1}));
    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "y");
    sls.inferShapes(ws);
    EXPECT_DEATH(sls.run(ws), "out of range");
}

TEST(GatherOp, SelectsRows)
{
    Workspace ws;
    ws.set("table", Tensor::fromFloats({3, 2}, {1, 2, 3, 4, 5, 6}));
    ws.set("idx", Tensor::fromInt64s({4}, {2, 0, 2, 1}));
    GatherOp gather("g", "table", "idx", "y");
    runOp(gather, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{4, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 5);
    EXPECT_FLOAT_EQ(y.at({1, 1}), 2);
    EXPECT_FLOAT_EQ(y.at({3, 0}), 3);
}

TEST(ReduceSumOp, PoolsMiddleAxis)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8}));
    ReduceSumOp rs("rs", "x", "y");
    runOp(rs, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 4);   // 1+3
    EXPECT_FLOAT_EQ(y.at({0, 1}), 6);   // 2+4
    EXPECT_FLOAT_EQ(y.at({1, 0}), 12);  // 5+7
}

TEST(GatherPlusReduceSumEqualsSLS, TfCaffe2Equivalence)
{
    // The Fig. 7 operator mapping: ResourceGather + Sum == SLS.
    Workspace ws;
    ws.set("table",
           Tensor::fromFloats({5, 3},
                              {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                               13, 14, 15}));
    ws.set("idx", Tensor::fromInt64s({6}, {0, 2, 4, 1, 1, 3}));
    ws.set("len", Tensor::fromInt32s({2}, {3, 3}));

    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "y_sls");
    runOp(sls, ws);

    GatherOp gather("g", "table", "idx", "rows");
    runOp(gather, ws);
    ReshapeOp shape("r", "rows", "rows3d", {-1, 3, 3});
    runOp(shape, ws);
    ReduceSumOp pool("p", "rows3d", "y_tf");
    runOp(pool, ws);

    const Tensor& a = ws.get("y_sls");
    const Tensor& b = ws.get("y_tf");
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.data<float>()[i], b.data<float>()[i]);
    }
}

TEST(BatchMatMulOp, MatchesReference)
{
    Workspace ws;
    // A [1,2,3] x B [1,3,1]
    ws.set("a", Tensor::fromFloats({1, 2, 3}, {1, 2, 3, 4, 5, 6}));
    ws.set("b", Tensor::fromFloats({1, 3, 1}, {1, 10, 100}));
    BatchMatMulOp bmm("bmm", "a", "b", "c");
    runOp(bmm, ws);
    const Tensor& c = ws.get("c");
    ASSERT_EQ(c.shape(), (std::vector<int64_t>{1, 2, 1}));
    EXPECT_FLOAT_EQ(c.at({0, 0, 0}), 321);
    EXPECT_FLOAT_EQ(c.at({0, 1, 0}), 654);
}

TEST(BatchMatMulOp, PerBatchIndependence)
{
    Workspace ws;
    ws.set("a", Tensor::fromFloats({2, 1, 2}, {1, 1, 2, 2}));
    ws.set("b", Tensor::fromFloats({2, 2, 1}, {1, 1, 10, 10}));
    BatchMatMulOp bmm("bmm", "a", "b", "c");
    runOp(bmm, ws);
    EXPECT_FLOAT_EQ(ws.get("c").at({0, 0, 0}), 2);
    EXPECT_FLOAT_EQ(ws.get("c").at({1, 0, 0}), 40);
}

TEST(SoftmaxOp, RowsSumToOneAndOrderPreserved)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 3}, {1, 2, 3, -1, 0, 1}));
    SoftmaxOp sm("sm", "x", "y");
    runOp(sm, ws);
    const Tensor& y = ws.get("y");
    for (int64_t r = 0; r < 2; ++r) {
        float sum = 0;
        for (int64_t c = 0; c < 3; ++c) {
            sum += y.at({r, c});
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
        EXPECT_LT(y.at({r, 0}), y.at({r, 2}));
    }
}

TEST(SoftmaxOp, NumericallyStableForLargeInputs)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({1, 2}, {1000, 1001}));
    SoftmaxOp sm("sm", "x", "y");
    runOp(sm, ws);
    EXPECT_NEAR(ws.get("y").at({0, 1}),
                1.0f / (1.0f + std::exp(-1.0f)), 1e-5);
}

TEST(ReshapeOp, InfersWildcard)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 6}, std::vector<float>(12, 1.0f)));
    ReshapeOp rs("rs", "x", "y", {-1, 3});
    runOp(rs, ws);
    EXPECT_EQ(ws.get("y").shape(), (std::vector<int64_t>{4, 3}));
}

TEST(SliceOp, ExtractsPlane)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 3, 2},
                                   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                    11}));
    SliceOp slice("sl", "x", "y", 1);
    runOp(slice, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 0}), 2);
    EXPECT_FLOAT_EQ(y.at({0, 1}), 3);
    EXPECT_FLOAT_EQ(y.at({1, 0}), 8);
}

TEST(TransposeOp, TwoD)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 3}, {1, 2, 3, 4, 5, 6}));
    TransposeOp tr("t", "x", "y");
    runOp(tr, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{3, 2}));
    EXPECT_FLOAT_EQ(y.at({0, 1}), 4);
    EXPECT_FLOAT_EQ(y.at({2, 0}), 3);
}

TEST(TransposeOp, ThreeDSwapsFirstTwoAxes)
{
    Workspace ws;
    ws.set("x", Tensor::fromFloats({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7}));
    TransposeOp tr("t", "x", "y");
    runOp(tr, ws);
    const Tensor& y = ws.get("y");
    ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 2, 2}));
    // y[j][i][k] == x[i][j][k]
    EXPECT_FLOAT_EQ(y.at({1, 0, 0}), 2);
    EXPECT_FLOAT_EQ(y.at({0, 1, 1}), 5);
}

/** Reference single-step GRU math for the fused-layer test. */
void
referenceGruStep(const std::vector<float>& x, std::vector<float>& h,
                 const std::vector<float>& wx,
                 const std::vector<float>& wh,
                 const std::vector<float>& bias, int input, int hidden,
                 float att)
{
    auto sigm = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    std::vector<float> gx(3 * hidden), gh(3 * hidden);
    for (int g = 0; g < 3 * hidden; ++g) {
        float ax = bias[g];
        for (int i = 0; i < input; ++i) {
            ax += wx[g * input + i] * x[i];
        }
        gx[g] = ax;
        float ah = 0;
        for (int i = 0; i < hidden; ++i) {
            ah += wh[g * hidden + i] * h[i];
        }
        gh[g] = ah;
    }
    for (int i = 0; i < hidden; ++i) {
        const float r = sigm(gx[i] + gh[i]);
        float z = sigm(gx[hidden + i] + gh[hidden + i]);
        z *= att;
        const float n =
            std::tanh(gx[2 * hidden + i] + r * gh[2 * hidden + i]);
        h[i] = (1 - z) * n + z * h[i];
    }
}

TEST(GRULayerOp, MatchesReferenceImplementation)
{
    const int steps = 3, batch = 2, input = 2, hidden = 2;
    Rng rng(17);
    auto rand_vec = [&rng](int n) {
        std::vector<float> v(n);
        for (auto& f : v) {
            f = rng.nextFloat(-0.5f, 0.5f);
        }
        return v;
    };
    const auto x = rand_vec(steps * batch * input);
    const auto h0 = rand_vec(batch * hidden);
    const auto wx = rand_vec(3 * hidden * input);
    const auto wh = rand_vec(3 * hidden * hidden);
    const auto bias = rand_vec(3 * hidden);

    Workspace ws;
    ws.set("x", Tensor::fromFloats({steps, batch, input}, x));
    ws.set("h0", Tensor::fromFloats({batch, hidden}, h0));
    ws.set("wx", Tensor::fromFloats({3 * hidden, input}, wx));
    ws.set("wh", Tensor::fromFloats({3 * hidden, hidden}, wh));
    ws.set("b", Tensor::fromFloats({3 * hidden}, bias));
    GRULayerOp gru("gru", "x", "h0", "wx", "wh", "b", "hseq", "hlast");
    runOp(gru, ws);

    // Reference: per-sample step loop (attention fixed at 1).
    for (int b = 0; b < batch; ++b) {
        std::vector<float> h(h0.begin() + b * hidden,
                             h0.begin() + (b + 1) * hidden);
        for (int t = 0; t < steps; ++t) {
            std::vector<float> xt(
                x.begin() + (t * batch + b) * input,
                x.begin() + (t * batch + b + 1) * input);
            referenceGruStep(xt, h, wx, wh, bias, input, hidden, 1.0f);
            for (int i = 0; i < hidden; ++i) {
                EXPECT_NEAR(ws.get("hseq").at({t, b, i}), h[i], 1e-5)
                    << "t=" << t << " b=" << b << " i=" << i;
            }
        }
        for (int i = 0; i < hidden; ++i) {
            EXPECT_NEAR(ws.get("hlast").at({b, i}), h[i], 1e-5);
        }
    }
}

TEST(GRULayerOp, AttentionalUpdateScalesGate)
{
    const int steps = 2, batch = 1, input = 1, hidden = 1;
    Workspace ws;
    ws.set("x", Tensor::fromFloats({steps, batch, input}, {0.5f, -0.5f}));
    ws.set("h0", Tensor::fromFloats({batch, hidden}, {0.2f}));
    ws.set("wx", Tensor::fromFloats({3, 1}, {0.3f, 0.4f, 0.5f}));
    ws.set("wh", Tensor::fromFloats({3, 1}, {0.1f, -0.2f, 0.3f}));
    ws.set("b", Tensor::fromFloats({3}, {0.0f, 0.1f, -0.1f}));
    ws.set("att", Tensor::fromFloats({steps, batch}, {0.7f, 0.2f}));
    GRULayerOp gru("augru", "x", "h0", "wx", "wh", "b", "hseq", "hlast",
                   "att");
    EXPECT_TRUE(gru.attentional());
    runOp(gru, ws);

    std::vector<float> h = {0.2f};
    referenceGruStep({0.5f}, h, {0.3f, 0.4f, 0.5f}, {0.1f, -0.2f, 0.3f},
                     {0.0f, 0.1f, -0.1f}, 1, 1, 0.7f);
    referenceGruStep({-0.5f}, h, {0.3f, 0.4f, 0.5f}, {0.1f, -0.2f, 0.3f},
                     {0.0f, 0.1f, -0.1f}, 1, 1, 0.2f);
    EXPECT_NEAR(ws.get("hlast").at({0, 0}), h[0], 1e-5);
}

/** Property: FC output is linear in the input. */
class FCLinearity : public ::testing::TestWithParam<int>
{
};

TEST_P(FCLinearity, ScalingInputScalesOutput)
{
    const int k = GetParam();
    Rng rng(21);
    std::vector<float> xv(static_cast<size_t>(k)), wv(2 * k);
    for (auto& f : xv) f = rng.nextFloat(-1, 1);
    for (auto& f : wv) f = rng.nextFloat(-1, 1);

    Workspace ws;
    ws.set("x", Tensor::fromFloats({1, k}, xv));
    ws.set("w", Tensor::fromFloats({2, k}, wv));
    ws.set("b", Tensor::fromFloats({2}, {0, 0}));
    FCOp fc("fc", "x", "w", "b", "y");
    runOp(fc, ws);
    const float y0 = ws.get("y").at({0, 0});
    const float y1 = ws.get("y").at({0, 1});

    for (auto& f : xv) f *= 3.0f;
    ws.set("x", Tensor::fromFloats({1, k}, xv));
    runOp(fc, ws);
    EXPECT_NEAR(ws.get("y").at({0, 0}), 3.0f * y0, 1e-3);
    EXPECT_NEAR(ws.get("y").at({0, 1}), 3.0f * y1, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Widths, FCLinearity,
                         ::testing::Values(1, 3, 8, 17, 64, 256));

}  // namespace
}  // namespace recstack
