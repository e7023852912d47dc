/**
 * @file
 * Vector-vs-scalar differential harness: the trust anchor of the SIMD
 * kernel tier (ops/kernels.h, docs/vectorization.md).
 *
 * The tolerance policy under test, per kernel family:
 *
 *  - BIT-IDENTICAL family — kernels whose vectorization preserves the
 *    per-element accumulation order (rowAdd/rowAddScaled/rowScale/
 *    rowCopy behind SLS/SLWS/SLMean/Gather/ReduceSum, and
 *    batchMatMulRows): scalar and avx2 outputs must memcmp equal.
 *    Model-wide, every blob NOT data-dependent on a dot-reduction op
 *    inherits this guarantee transitively.
 *  - TOLERANCE family — k-reduction kernels (dotBias behind FC,
 *    FusedFC and the GRU gate matmuls): the avx2 tier splits the
 *    reduction over 8 FMA lanes, which reorders additions. Kernel
 *    granularity, the divergence is bounded by
 *        |scalar - avx2| <= 16 * eps * (|bias| + sum_i |x_i * w_i|)
 *    (reassociation error scales with the magnitude sum of the terms,
 *    not the possibly-cancelled result). Model granularity, after
 *    layer composition and activations, outputs must satisfy
 *        |a - b| <= 1e-5 + 1e-4 * max(|a|, |b|).
 *
 * Matrix: 8 models x batch {1, 64, 256} x tier {scalar, avx2}, on the
 * interpreted AND compiled (plan-lowered) executor paths, plus
 * kernel-level property tests at odd/prime sizes that land in the
 * remainder/tail lanes, and an end-to-end RECSTACK_ISA env check.
 * avx2 cases skip (not silently pass) on hosts without AVX2+FMA.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "graph/compiled_net.h"
#include "graph/executor.h"
#include "models/model.h"
#include "ops/embedding.h"
#include "ops/fc.h"
#include "ops/kernels.h"

namespace recstack {
namespace {

/// Model-granularity tolerance (docs/vectorization.md).
constexpr float kModelRtol = 1e-4f;
constexpr float kModelAtol = 1e-5f;

/// Kernel-granularity reassociation bound factor.
constexpr float kDotBoundFactor = 16.0f;

ModelOptions
testOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

/** Bitwise tensor equality, any dtype. */
void
expectTensorsIdentical(const std::string& blob, const Tensor& a,
                       const Tensor& b)
{
    ASSERT_EQ(a.shape(), b.shape()) << "blob " << blob;
    ASSERT_EQ(a.dtype(), b.dtype()) << "blob " << blob;
    const void* pa = nullptr;
    const void* pb = nullptr;
    switch (a.dtype()) {
      case DType::kFloat32:
        pa = a.data<float>();
        pb = b.data<float>();
        break;
      case DType::kInt32:
        pa = a.data<int32_t>();
        pb = b.data<int32_t>();
        break;
      case DType::kInt64:
        pa = a.data<int64_t>();
        pb = b.data<int64_t>();
        break;
    }
    EXPECT_EQ(std::memcmp(pa, pb, a.byteSize()), 0)
        << "blob '" << blob << "' diverges between scalar and avx2 "
        << "but is in the bit-identical family";
}

/** Mixed absolute/relative fp32 comparison (tolerance family). */
void
expectTensorsClose(const std::string& blob, const Tensor& a,
                   const Tensor& b, float rtol, float atol)
{
    ASSERT_EQ(a.shape(), b.shape()) << "blob " << blob;
    ASSERT_EQ(a.dtype(), DType::kFloat32) << "blob " << blob;
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    for (int64_t i = 0; i < a.numel(); ++i) {
        const float tol =
            atol + rtol * std::max(std::fabs(pa[i]), std::fabs(pb[i]));
        ASSERT_NEAR(pa[i], pb[i], tol)
            << "blob '" << blob << "' element " << i
            << " exceeds the documented dot-reduction tolerance";
    }
}

/**
 * Ops whose kernels reorder the k-reduction on the avx2 tier; any
 * blob data-dependent on one of these carries the tolerance, every
 * other blob must stay bit-identical.
 */
bool
isDotFamily(const std::string& type)
{
    return type == "FC" || type == "FusedFC" || type == "GRULayer" ||
           type == "AUGRULayer" || type == "FusedGRUStep";
}

/** Transitive taint: blobs allowed to differ between tiers. */
std::set<std::string>
toleranceBlobs(const NetDef& net)
{
    std::set<std::string> tainted;
    for (const auto& op : net.ops()) {
        bool taint = isDotFamily(op->type());
        if (!taint) {
            for (const std::string& input : op->inputs()) {
                if (tainted.count(input) != 0) {
                    taint = true;
                    break;
                }
            }
        }
        if (taint) {
            for (const std::string& output : op->outputs()) {
                tainted.insert(output);
            }
        }
    }
    return tainted;
}

/** Seed params + inputs identically across tiers. */
void
materializeInputs(const Model& model, int64_t batch, Workspace* ws)
{
    model.initParams(*ws);
    BatchGenerator gen(model.workload, /*seed=*/1234);
    gen.materialize(*ws, batch);
}

/** One interpreted numeric run under the given tier. */
void
runInterpreted(const Model& model, KernelIsa isa, int64_t batch,
               Workspace* ws)
{
    IsaScope tier(isa);
    materializeInputs(model, batch, ws);
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    opts.numThreads = 1;
    Executor::run(model.net, *ws, opts);
}

class SimdDifferential
    : public ::testing::TestWithParam<std::tuple<ModelId, int64_t>>
{
};

/**
 * Interpreted path: every blob of every model compared between tiers,
 * memcmp for the bit-identical family, documented tolerance for blobs
 * downstream of a dot reduction.
 */
TEST_P(SimdDifferential, InterpretedScalarVsAvx2PerBlobPolicy)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    const ModelId id = std::get<0>(GetParam());
    const int64_t batch = std::get<1>(GetParam());
    const Model model = buildModel(id, testOptions());

    Workspace scalar_ws;
    runInterpreted(model, KernelIsa::kScalar, batch, &scalar_ws);
    Workspace avx2_ws;
    runInterpreted(model, KernelIsa::kAvx2, batch, &avx2_ws);

    const std::set<std::string> tolerance = toleranceBlobs(model.net);
    // Every model ends in FC layers; an empty taint set means the
    // classifier broke, not that the model is dot-free.
    ASSERT_FALSE(tolerance.empty());

    const std::vector<std::string> blobs = scalar_ws.names();
    ASSERT_EQ(blobs.size(), avx2_ws.names().size());
    for (const std::string& blob : blobs) {
        ASSERT_TRUE(avx2_ws.has(blob)) << blob;
        const Tensor& a = scalar_ws.get(blob);
        const Tensor& b = avx2_ws.get(blob);
        if (tolerance.count(blob) != 0 &&
            a.dtype() == DType::kFloat32) {
            expectTensorsClose(blob, a, b, kModelRtol, kModelAtol);
        } else {
            expectTensorsIdentical(blob, a, b);
        }
    }
}

/**
 * Compiled path: a plan lowered under a tier records that tier, and
 * its fused kernels match the same-tier interpreted run bit-for-bit
 * (the canonical-dot contract of ops/kernels.h).
 */
TEST_P(SimdDifferential, CompiledMatchesInterpretedPerTier)
{
    const ModelId id = std::get<0>(GetParam());
    const int64_t batch = std::get<1>(GetParam());
    const Model model = buildModel(id, testOptions());

    std::vector<KernelIsa> isas = {KernelIsa::kScalar};
    if (kernelIsaSupported(KernelIsa::kAvx2)) {
        isas.push_back(KernelIsa::kAvx2);
    }
    for (const KernelIsa isa : isas) {
        SCOPED_TRACE(kernelIsaName(isa));
        IsaScope tier(isa);

        Workspace ref_ws;
        materializeInputs(model, batch, &ref_ws);
        ExecOptions opts;
        opts.mode = ExecMode::kNumericOnly;
        opts.numThreads = 1;
        Executor::run(model.net, ref_ws, opts);

        auto compiled = CompiledNet::compile(model.net);
        Workspace ws;
        Arena arena;
        materializeInputs(model, batch, &ws);
        // The plan is specialized under this scope: lowering-time ISA.
        EXPECT_EQ(compiled->plan(ws, batch).kernelIsa, isa);
        Executor::run(*compiled, ws, arena, batch, opts);

        for (const std::string& blob : model.net.externalOutputs()) {
            ASSERT_TRUE(ws.has(blob)) << blob;
            expectTensorsIdentical(blob, ref_ws.get(blob),
                                   ws.get(blob));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SimdDifferential,
    ::testing::Combine(::testing::Values(ModelId::kNCF, ModelId::kRM1,
                                         ModelId::kRM2, ModelId::kRM3,
                                         ModelId::kWnD, ModelId::kMTWnD,
                                         ModelId::kDIN, ModelId::kDIEN),
                       ::testing::Values(int64_t{1}, int64_t{64},
                                         int64_t{256})),
    [](const ::testing::TestParamInfo<std::tuple<ModelId, int64_t>>&
           info) {
        std::string name = modelName(std::get<0>(info.param));
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';  // "MT-WnD" -> "MT_WnD"
            }
        }
        return name + "_b" + std::to_string(std::get<1>(info.param));
    });

/**
 * A plan compiled while avx2 is active keeps executing avx2 kernels
 * after the process reverts to scalar: lowering-time choice, pinned
 * by the IsaScope the executor installs from NetPlan::kernelIsa.
 */
TEST(SimdDifferentialVariants, PlanPinsLoweringTimeTier)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    const Model model = buildModel(ModelId::kRM1, testOptions());
    const int64_t batch = 64;
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;

    auto compiled = CompiledNet::compile(model.net);
    Workspace avx2_ws;
    Arena avx2_arena;
    materializeInputs(model, batch, &avx2_ws);
    {
        IsaScope tier(KernelIsa::kAvx2);
        Executor::run(*compiled, avx2_ws, avx2_arena, batch, opts);
        EXPECT_EQ(compiled->plan(avx2_ws, batch).kernelIsa,
                  KernelIsa::kAvx2);
    }

    // Re-run the same compiled net with scalar active: the memoized
    // plan still carries (and installs) the avx2 tier.
    Workspace rerun_ws;
    Arena rerun_arena;
    materializeInputs(model, batch, &rerun_ws);
    {
        IsaScope tier(KernelIsa::kScalar);
        Executor::run(*compiled, rerun_ws, rerun_arena, batch, opts);
    }
    const std::string& out = model.outputBlob;
    expectTensorsIdentical(out, avx2_ws.get(out), rerun_ws.get(out));
}

/**
 * RECSTACK_ISA reaches the kernels end to end: an env-selected run is
 * bit-identical to the equivalent IsaScope-selected run, per tier.
 */
TEST(SimdDifferentialVariants, EnvVarSelectsTierEndToEnd)
{
    const Model model = buildModel(ModelId::kWnD, testOptions());
    std::vector<KernelIsa> isas = {KernelIsa::kScalar};
    if (kernelIsaSupported(KernelIsa::kAvx2)) {
        isas.push_back(KernelIsa::kAvx2);
    }
    for (const KernelIsa isa : isas) {
        SCOPED_TRACE(kernelIsaName(isa));
        Workspace scope_ws;
        runInterpreted(model, isa, 16, &scope_ws);

        ASSERT_EQ(setenv("RECSTACK_ISA", kernelIsaName(isa), 1), 0);
        clearKernelIsa();  // drop the cached env resolution
        Workspace env_ws;
        materializeInputs(model, 16, &env_ws);
        ExecOptions opts;
        opts.mode = ExecMode::kNumericOnly;
        Executor::run(model.net, env_ws, opts);
        ASSERT_EQ(unsetenv("RECSTACK_ISA"), 0);
        clearKernelIsa();

        for (const std::string& blob : scope_ws.names()) {
            expectTensorsIdentical(blob, scope_ws.get(blob),
                                   env_ws.get(blob));
        }
    }
}

/**
 * Graph-level prime/odd shapes: SLS dim 13 pooling into an FC with
 * k = 13, n = 7 over a 997-row table at batch 5 — every size lands in
 * a tail lane. The pooled blob must stay bit-identical across tiers;
 * the FC output carries the tolerance.
 */
TEST(SimdDifferentialVariants, PrimeDimensionNetTailLanes)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    constexpr int64_t kRows = 997;
    constexpr int64_t kDim = 13;
    constexpr int64_t kOut = 7;
    constexpr int64_t kBatch = 5;

    NetDef net("prime");
    net.addExternalInput("table");
    net.addExternalInput("idx");
    net.addExternalInput("len");
    net.addExternalInput("w");
    net.addExternalInput("b");
    net.addOp(makeSparseLengthsReduce(SlsKind::kSum, "sls", "table", "",
                                      "idx", "len", "pooled"));
    net.addOp(makeFC("fc", "pooled", "w", "b", "y"));
    net.addExternalOutput("y");
    net.validate();

    auto fill = [](Workspace& ws) {
        Rng rng(42);
        std::vector<float> table(kRows * kDim);
        for (float& v : table) {
            v = rng.nextFloat(-1.0f, 1.0f);
        }
        std::vector<float> w(kOut * kDim);
        for (float& v : w) {
            v = rng.nextFloat(-1.0f, 1.0f);
        }
        std::vector<float> b(kOut);
        for (float& v : b) {
            v = rng.nextFloat(-1.0f, 1.0f);
        }
        // Segment lengths include 0 (empty pooling) and a prime 11.
        const std::vector<int32_t> len = {3, 0, 11, 1, 7};
        std::vector<int64_t> idx;
        for (int32_t l : len) {
            for (int32_t i = 0; i < l; ++i) {
                idx.push_back(static_cast<int64_t>(
                    rng.nextBounded(static_cast<uint64_t>(kRows))));
            }
        }
        ws.set("table", Tensor::fromFloats({kRows, kDim}, table));
        ws.set("idx", Tensor::fromInt64s(
                          {static_cast<int64_t>(idx.size())}, idx));
        ws.set("len", Tensor::fromInt32s({kBatch}, len));
        ws.set("w", Tensor::fromFloats({kOut, kDim}, w));
        ws.set("b", Tensor::fromFloats({kOut}, b));
    };

    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    Workspace scalar_ws;
    fill(scalar_ws);
    {
        IsaScope tier(KernelIsa::kScalar);
        Executor::run(net, scalar_ws, opts);
    }
    Workspace avx2_ws;
    fill(avx2_ws);
    {
        IsaScope tier(KernelIsa::kAvx2);
        Executor::run(net, avx2_ws, opts);
    }
    expectTensorsIdentical("pooled", scalar_ws.get("pooled"),
                           avx2_ws.get("pooled"));
    expectTensorsClose("y", scalar_ws.get("y"), avx2_ws.get("y"),
                       kModelRtol, kModelAtol);
}

// ---------------------------------------------------------------------
// Kernel-granularity property tests over remainder/tail lanes.
// ---------------------------------------------------------------------

/// Sizes straddling the 8-lane boundary: below, at, and prime/odd
/// around multiples, up to several vector blocks.
const int64_t kTailSizes[] = {1,  2,  3,  5,  7,  8,   9,   13,  16,
                              17, 31, 32, 33, 61, 64,  67,  127, 128,
                              131, 251, 256, 257};

std::vector<float>
randomVec(Rng* rng, int64_t n)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (float& x : v) {
        x = rng->nextFloat(-1.0f, 1.0f);
    }
    return v;
}

/** Reassociation bound: 16 * eps * (|bias| + sum |x_i w_i|). */
float
dotBound(float bias, const std::vector<float>& x,
         const std::vector<float>& w)
{
    float mag = std::fabs(bias);
    for (size_t i = 0; i < x.size(); ++i) {
        mag += std::fabs(x[i] * w[i]);
    }
    return kDotBoundFactor * FLT_EPSILON * mag;
}

TEST(SimdKernelProperties, DotBiasTailLanesWithinBound)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    Rng rng(7);
    for (const int64_t k : kTailSizes) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const std::vector<float> x = randomVec(&rng, k);
        const std::vector<float> w = randomVec(&rng, k);
        const float bias = rng.nextFloat(-1.0f, 1.0f);
        const float s = kern::dotBias(KernelIsa::kScalar, bias,
                                      x.data(), w.data(), k);
        const float v = kern::dotBias(KernelIsa::kAvx2, bias, x.data(),
                                      w.data(), k);
        if (k < 8) {
            // Tail-only path: no lane split happened, so the avx2
            // tier runs the exact scalar sequence.
            EXPECT_EQ(std::memcmp(&s, &v, sizeof(float)), 0)
                << "k<8 must be bit-identical, got " << s << " vs "
                << v;
        } else {
            EXPECT_NEAR(s, v, dotBound(bias, x, w));
        }
        // Both tiers must track a double-precision reference too —
        // agreement alone would not catch a both-wrong kernel.
        double ref = static_cast<double>(bias);
        for (int64_t c = 0; c < k; ++c) {
            ref += static_cast<double>(x[static_cast<size_t>(c)]) *
                   static_cast<double>(w[static_cast<size_t>(c)]);
        }
        EXPECT_NEAR(v, static_cast<float>(ref),
                    dotBound(bias, x, w) + 1e-6f);
    }
}

/** The activation fcRows fuses, applied to a dotBias reference. */
float
applyAct(kern::FcAct act, float v)
{
    switch (act) {
      case kern::FcAct::kNone:
        return v;
      case kern::FcAct::kRelu:
        return v > 0.0f ? v : 0.0f;
      case kern::FcAct::kSigmoid:
        return 1.0f / (1.0f + std::exp(-v));
      case kern::FcAct::kTanh:
        return std::tanh(v);
    }
    return v;
}

TEST(SimdKernelProperties, FcRowsMatchesStandaloneDotBiasPerTier)
{
    // Contract: every fcRows element equals a standalone dotBias call
    // on the same tier, bit for bit, whichever register tile, column
    // panel or [lo, hi) split computed it — this is what keeps FusedFC
    // and the GRU gates equal to unfused FC. m = 1..9 and n = 1..8
    // hit every partial row and column tile; k = 1 and 7 never reach
    // the 8-lane loop, 8/9 and 64/65 sit on either side of a lane
    // block, and n = 100 at k = 1330 spans several L2 column panels.
    std::vector<std::pair<int64_t, int64_t>> shapes;  // (n, k)
    for (const int64_t k : {1, 7, 8, 9, 64, 65, 1330}) {
        for (int64_t n = 1; n <= 8; ++n) {
            shapes.emplace_back(n, k);
        }
    }
    shapes.emplace_back(100, 1330);
    const kern::FcAct acts[] = {kern::FcAct::kNone, kern::FcAct::kRelu,
                                kern::FcAct::kSigmoid,
                                kern::FcAct::kTanh};

    std::vector<KernelIsa> isas = {KernelIsa::kScalar};
    if (kernelIsaSupported(KernelIsa::kAvx2)) {
        isas.push_back(KernelIsa::kAvx2);
    }
    Rng rng(11);
    for (const KernelIsa isa : isas) {
        for (const auto& [n, k] : shapes) {
            const std::vector<float> w = randomVec(&rng, n * k);
            const std::vector<float> b = randomVec(&rng, n);
            for (int64_t m = 1; m <= 9; ++m) {
                const std::vector<float> x = randomVec(&rng, m * k);
                const size_t bytes = static_cast<size_t>(m * n) *
                                     sizeof(float);
                for (const kern::FcAct act : acts) {
                    SCOPED_TRACE(std::string(kernelIsaName(isa)) +
                                 " m=" + std::to_string(m) +
                                 " n=" + std::to_string(n) +
                                 " k=" + std::to_string(k) + " act=" +
                                 std::to_string(static_cast<int>(act)));
                    std::vector<float> y(static_cast<size_t>(m * n));
                    kern::fcRows(isa, x.data(), w.data(), b.data(),
                                 y.data(), 0, m, n, k, act);
                    for (int64_t i = 0; i < m; ++i) {
                        for (int64_t j = 0; j < n; ++j) {
                            const float ref = applyAct(
                                act, kern::dotBias(
                                         isa, b[static_cast<size_t>(j)],
                                         x.data() + i * k,
                                         w.data() + j * k, k));
                            const float got =
                                y[static_cast<size_t>(i * n + j)];
                            ASSERT_EQ(std::memcmp(&ref, &got,
                                                  sizeof(float)),
                                      0)
                                << "fcRows(" << i << "," << j
                                << ") != dotBias";
                        }
                    }
                    // Two calls split at every row, and one call per
                    // row, reproduce the whole-range call.
                    for (int64_t split = 1; split < m; ++split) {
                        std::vector<float> ys(y.size());
                        kern::fcRows(isa, x.data(), w.data(), b.data(),
                                     ys.data(), 0, split, n, k, act);
                        kern::fcRows(isa, x.data(), w.data(), b.data(),
                                     ys.data(), split, m, n, k, act);
                        ASSERT_EQ(std::memcmp(ys.data(), y.data(), bytes),
                                  0)
                            << "split at row " << split;
                    }
                    std::vector<float> ys(y.size());
                    for (int64_t i = 0; i < m; ++i) {
                        kern::fcRows(isa, x.data(), w.data(), b.data(),
                                     ys.data(), i, i + 1, n, k, act);
                    }
                    ASSERT_EQ(std::memcmp(ys.data(), y.data(), bytes), 0)
                        << "one call per row";
                }
            }
        }
    }
}

TEST(SimdKernelProperties, RowKernelsBitIdenticalAcrossTiers)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    Rng rng(13);
    for (const int64_t dim : kTailSizes) {
        SCOPED_TRACE("dim=" + std::to_string(dim));
        const std::vector<float> src = randomVec(&rng, dim);
        const std::vector<float> base = randomVec(&rng, dim);
        const float scale = rng.nextFloat(-2.0f, 2.0f);
        const size_t bytes = static_cast<size_t>(dim) * sizeof(float);

        std::vector<float> a = base;
        std::vector<float> b = base;
        kern::rowAdd(KernelIsa::kScalar, a.data(), src.data(), dim);
        kern::rowAdd(KernelIsa::kAvx2, b.data(), src.data(), dim);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0) << "rowAdd";

        a = base;
        b = base;
        kern::rowAddScaled(KernelIsa::kScalar, a.data(), src.data(),
                           scale, dim);
        kern::rowAddScaled(KernelIsa::kAvx2, b.data(), src.data(),
                           scale, dim);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0)
            << "rowAddScaled (FMA would break this)";

        a = base;
        b = base;
        kern::rowScale(KernelIsa::kScalar, a.data(), scale, dim);
        kern::rowScale(KernelIsa::kAvx2, b.data(), scale, dim);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0)
            << "rowScale";

        a.assign(static_cast<size_t>(dim), 0.0f);
        b.assign(static_cast<size_t>(dim), 0.0f);
        kern::rowCopy(KernelIsa::kScalar, a.data(), src.data(), dim);
        kern::rowCopy(KernelIsa::kAvx2, b.data(), src.data(), dim);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0)
            << "rowCopy";
    }
}

TEST(SimdKernelProperties, BatchMatMulRowsBitIdenticalAcrossTiers)
{
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    constexpr int64_t batch = 2;
    constexpr int64_t m = 3;
    constexpr int64_t k = 5;
    Rng rng(17);
    for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{8},
                            int64_t{9}, int64_t{13}, int64_t{31},
                            int64_t{33}}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::vector<float> a = randomVec(&rng, batch * m * k);
        const std::vector<float> b = randomVec(&rng, batch * k * n);
        std::vector<float> cs(static_cast<size_t>(batch * m * n));
        std::vector<float> cv(cs.size());
        kern::batchMatMulRows(KernelIsa::kScalar, a.data(), b.data(),
                              cs.data(), 0, batch * m, m, k, n);
        kern::batchMatMulRows(KernelIsa::kAvx2, a.data(), b.data(),
                              cv.data(), 0, batch * m, m, k, n);
        EXPECT_EQ(std::memcmp(cs.data(), cv.data(),
                              cs.size() * sizeof(float)),
                  0)
            << "batchMatMulRows must keep the scalar per-element "
            << "accumulation order";
    }
}

}  // namespace
}  // namespace recstack
