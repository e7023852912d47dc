/**
 * @file
 * Tests for the eight model builders: graph validity, end-to-end
 * numerics on scaled-down instances, and feature extraction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/cpu_features.h"
#include "graph/compiled_net.h"
#include "graph/executor.h"
#include "models/model.h"

namespace recstack {
namespace {

/** Run tiny numerics end to end; returns the output tensor. */
const Tensor&
runTiny(Model& model, Workspace& ws, int64_t batch)
{
    model.initParams(ws, 7);
    BatchGenerator gen(model.workload, 42);
    gen.materialize(ws, batch);
    Executor::run(model.net, ws, ExecMode::kFull);
    return ws.get(model.outputBlob);
}

class AllModelsTest : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(AllModelsTest, BuildsAndValidates)
{
    Model model = buildModel(GetParam(), tinyOptions());
    model.net.validate();
    EXPECT_GT(model.net.opCount(), 0u);
    EXPECT_FALSE(model.weights.empty());
    EXPECT_EQ(model.name, modelName(GetParam()));
}

TEST_P(AllModelsTest, TinyInferenceProducesProbabilities)
{
    Model model = buildModel(GetParam(), tinyOptions());
    Workspace ws;
    const Tensor& out = runTiny(model, ws, 4);
    EXPECT_EQ(out.dim(0), 4);
    for (int64_t i = 0; i < out.numel(); ++i) {
        const float v = out.data<float>()[i];
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GT(v, 0.0f);   // sigmoid output
        ASSERT_LT(v, 1.0f);
    }
}

TEST_P(AllModelsTest, DeterministicOutputs)
{
    Model m1 = buildModel(GetParam(), tinyOptions());
    Model m2 = buildModel(GetParam(), tinyOptions());
    Workspace w1, w2;
    const Tensor& o1 = runTiny(m1, w1, 3);
    const Tensor& o2 = runTiny(m2, w2, 3);
    ASSERT_EQ(o1.numel(), o2.numel());
    for (int64_t i = 0; i < o1.numel(); ++i) {
        ASSERT_FLOAT_EQ(o1.data<float>()[i], o2.data<float>()[i]);
    }
}

TEST_P(AllModelsTest, FeaturesPopulated)
{
    Model model = buildModel(GetParam(), tinyOptions());
    const ModelFeatures& f = model.features;
    EXPECT_GT(f.numTables, 0);
    EXPECT_GT(f.lookupsPerTable, 0.0);
    EXPECT_GT(f.latentDim, 0);
    EXPECT_GT(f.embParams, 0u);
    EXPECT_GT(f.fcParams, 0u);
    EXPECT_GE(f.fcTopHeaviness(), 0.0);
    EXPECT_LE(f.fcTopHeaviness(), 1.0);
}

TEST_P(AllModelsTest, DeclareParamsIsShapeOnly)
{
    Model model = buildModel(GetParam(), tinyOptions());
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    for (const auto& w : model.weights) {
        EXPECT_FALSE(ws.get(w.name).materialized());
    }
    BatchGenerator gen(model.workload);
    gen.declare(ws, 256);
    const auto result =
        Executor::run(model.net, ws, ExecMode::kProfileOnly);
    EXPECT_EQ(result.records.size(), model.net.opCount());
}

TEST_P(AllModelsTest, BatchDimPropagates)
{
    Model model = buildModel(GetParam(), tinyOptions());
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    BatchGenerator gen(model.workload);
    for (int64_t batch : {1, 5, 32}) {
        gen.declare(ws, batch);
        Executor::run(model.net, ws, ExecMode::kProfileOnly);
        EXPECT_EQ(ws.get(model.outputBlob).dim(0), batch);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AllModelsTest,
    ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        std::string name = modelName(info.param);
        for (auto& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

/**
 * FNV-1a over every weight initParams writes (name order), for every
 * model at tiny options and two seeds. Weight scales (0.1 and
 * 1/sqrt(fan-in)) are not powers of two, so nextFloat's product
 * rounds; a contracted multiply-add in nextFloat would move this
 * digest, where the [-1, 1] input draws would not show it.
 */
TEST(Model, InitParamsDigestIsPinned)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    };
    for (ModelId id : allModels()) {
        const Model model = buildModel(id, tinyOptions());
        for (uint64_t seed : {7ull, 99ull}) {
            Workspace ws;
            model.initParams(ws, seed);
            std::vector<std::string> names = ws.names();
            std::sort(names.begin(), names.end());
            for (const std::string& name : names) {
                const Tensor& t = ws.get(name);
                mix(static_cast<uint64_t>(t.numel()));
                for (int64_t i = 0; i < t.numel(); ++i) {
                    mix(uint64_t{std::bit_cast<uint32_t>(t.data<float>()[i])});
                }
            }
        }
    }
    EXPECT_EQ(h, 0xa271e5da49605282ull) << "digest 0x" << std::hex << h;
}

/**
 * FNV-1a per kernel tier over every external output of every model at
 * tiny options, batches {1, 16, 256}, on the interpreted and the
 * compiled path (kNumericOnly, width 1). Any kernel change that moves
 * one output bit on either tier moves a digest. tanh is recstack's
 * fdlibm port, but sigmoid reads libm's expf (glibc's FMA expf,
 * reproduced, on avx2), so the pins hold for one libm, as
 * Zipf.DrawDigestsArePinned's hold for one pow. The avx2 pin skips
 * where the tier is unsupported.
 */
TEST(Model, OutputDigestsArePinned)
{
    struct Tier {
        KernelIsa isa;
        uint64_t pinned;
        uint64_t h;
    };
    Tier tiers[] = {
        {KernelIsa::kScalar, 0xc18dc7d8c7718c27ull, 1469598103934665603ull},
        {KernelIsa::kAvx2, 0x66dc056b4ae247efull, 1469598103934665603ull},
    };
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    opts.numThreads = 1;
    for (ModelId id : allModels()) {
        const Model model = buildModel(id, tinyOptions());
        Workspace ws;
        Workspace cws;
        model.initParams(ws, 7);
        model.initParams(cws, 7);
        for (Tier& tier : tiers) {
            if (!kernelIsaSupported(tier.isa)) {
                continue;
            }
            IsaScope scope(tier.isa);
            auto mix = [&tier](uint64_t v) {
                for (int i = 0; i < 8; ++i) {
                    tier.h = (tier.h ^ ((v >> (8 * i)) & 0xffu)) *
                             1099511628211ull;
                }
            };
            auto mixOutputs = [&](const Workspace& w) {
                for (const std::string& blob : model.net.externalOutputs()) {
                    const Tensor& t = w.get(blob);
                    mix(static_cast<uint64_t>(t.numel()));
                    for (int64_t i = 0; i < t.numel(); ++i) {
                        mix(uint64_t{
                            std::bit_cast<uint32_t>(t.data<float>()[i])});
                    }
                }
            };
            // Compiled per tier: a plan keeps its lowering-time tier.
            auto compiled = CompiledNet::compile(model.net);
            Arena arena;
            for (int64_t batch : {1, 16, 256}) {
                BatchGenerator(model.workload, 42).materialize(ws, batch);
                Executor::run(model.net, ws, opts);
                mixOutputs(ws);
                BatchGenerator(model.workload, 42).materialize(cws, batch);
                Executor::run(*compiled, cws, arena, batch, opts);
                mixOutputs(cws);
            }
        }
    }
    for (const Tier& tier : tiers) {
        if (kernelIsaSupported(tier.isa)) {
            EXPECT_EQ(tier.h, tier.pinned) << kernelIsaName(tier.isa)
                                           << " digest 0x" << std::hex
                                           << tier.h;
        }
    }
}

TEST(ModelRegistry, NamesRoundTrip)
{
    for (ModelId id : allModels()) {
        EXPECT_EQ(modelFromName(modelName(id)), id);
    }
    EXPECT_DEATH(modelFromName("NOPE"), "unknown model");
}

TEST(ModelRegistry, EightModels)
{
    const auto models = allModels();
    EXPECT_EQ(models.size(), 8u);
    std::set<std::string> names;
    for (ModelId id : models) {
        names.insert(modelName(id));
        EXPECT_STRNE(modelDomain(id), "?");
        EXPECT_STRNE(modelInsight(id), "?");
    }
    EXPECT_EQ(names.size(), 8u);
}

TEST(ModelConfigs, TableIParameters)
{
    const ModelOptions opts;  // full-size configs
    const Model rm1 = buildModel(ModelId::kRM1, opts);
    EXPECT_EQ(rm1.features.numTables, 8);
    EXPECT_DOUBLE_EQ(rm1.features.lookupsPerTable, 80.0);

    const Model rm2 = buildModel(ModelId::kRM2, opts);
    EXPECT_EQ(rm2.features.numTables, 32);
    EXPECT_DOUBLE_EQ(rm2.features.lookupsPerTable, 120.0);

    const Model ncf = buildModel(ModelId::kNCF, opts);
    EXPECT_EQ(ncf.features.numTables, 4);
    EXPECT_DOUBLE_EQ(ncf.features.lookupsPerTable, 1.0);

    const Model din = buildModel(ModelId::kDIN, opts);
    EXPECT_TRUE(din.features.attention);
    EXPECT_FALSE(din.features.gru);

    const Model dien = buildModel(ModelId::kDIEN, opts);
    EXPECT_TRUE(dien.features.attention);
    EXPECT_TRUE(dien.features.gru);
}

TEST(ModelConfigs, FcHeavinessOrdering)
{
    const ModelOptions opts;
    const auto ratio = [&](ModelId id) {
        return buildModel(id, opts).features.fcToEmbRatio();
    };
    // RM3 shifts the parameter budget into FC stacks; RM1/RM2 into
    // embeddings.
    EXPECT_GT(ratio(ModelId::kRM3), 10 * ratio(ModelId::kRM1));
    EXPECT_GT(ratio(ModelId::kRM3), 10 * ratio(ModelId::kRM2));
}

TEST(ModelConfigs, DinUnrollsAttentionUnits)
{
    ModelOptions opts = tinyOptions();
    opts.dinBehaviors = 12;
    const Model din = buildModel(ModelId::kDIN, opts);
    // ~7 ops per behavior plus fixed overhead.
    EXPECT_GT(din.net.opCount(), 12u * 6);
    // Unique code regions marked on the attention-unit ops.
    int unique = 0;
    for (const auto& op : din.net.ops()) {
        unique += op->uniqueCodeBytes() > 0;
    }
    EXPECT_GE(unique, 12 * 6);
}

TEST(ModelConfigs, DienFusedVsUnrolled)
{
    ModelOptions unrolled = tinyOptions();
    ModelOptions fused = tinyOptions();
    fused.dienFusedGru = true;

    const Model a = buildModel(ModelId::kDIEN, unrolled);
    const Model b = buildModel(ModelId::kDIEN, fused);
    // Unrolled per-step graphs are far larger.
    EXPECT_GT(a.net.opCount(), 4 * b.net.opCount());
    // Fused path uses the GRULayer operator.
    bool has_fused_gru = false;
    for (const auto& op : b.net.ops()) {
        has_fused_gru |= op->type() == "GRULayer" ||
                         op->type() == "AUGRULayer";
    }
    EXPECT_TRUE(has_fused_gru);
    b.net.validate();
}

TEST(ModelConfigs, DienFusedNumericsRun)
{
    ModelOptions opts = tinyOptions();
    opts.dienFusedGru = true;
    Model model = buildModel(ModelId::kDIEN, opts);
    Workspace ws;
    const Tensor& out = runTiny(model, ws, 2);
    for (int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(out.data<float>()[i]));
    }
}

TEST(ModelConfigs, TableScaleShrinksTables)
{
    ModelOptions small = tinyOptions();
    const Model tiny = buildModel(ModelId::kRM1, small);
    const Model full = buildModel(ModelId::kRM1, ModelOptions{});
    EXPECT_LT(tiny.paramBytes(), full.paramBytes() / 100);
}

TEST(ModelConfigs, ParamBytesMatchesWeights)
{
    const Model m = buildModel(ModelId::kNCF, tinyOptions());
    uint64_t expect = 0;
    for (const auto& w : m.weights) {
        uint64_t n = 4;
        for (int64_t d : w.shape) {
            n *= static_cast<uint64_t>(d);
        }
        expect += n;
    }
    EXPECT_EQ(m.paramBytes(), expect);
}


TEST(ModelConfigs, PositionWeightedPoolingRunsEndToEnd)
{
    ModelOptions opts = tinyOptions();
    opts.positionWeighted = true;
    Model model = buildModel(ModelId::kRM1, opts);
    // The graph uses the weighted operator...
    bool has_slws = false;
    for (const auto& op : model.net.ops()) {
        has_slws |= op->type() == "SparseLengthsWeightedSum";
        EXPECT_NE(op->type(), "SparseLengthsSum");
    }
    EXPECT_TRUE(has_slws);
    // ...the workload declares weight blobs...
    for (const auto& cat : model.workload.categorical) {
        EXPECT_FALSE(cat.weightsBlob.empty());
    }
    // ...and numerics run to valid probabilities.
    Workspace ws;
    const Tensor& out = runTiny(model, ws, 3);
    for (int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_GT(out.data<float>()[i], 0.0f);
        ASSERT_LT(out.data<float>()[i], 1.0f);
    }
}

TEST(ModelConfigs, WeightedPoolingGrowsInputBytes)
{
    ModelOptions plain = tinyOptions();
    ModelOptions weighted = tinyOptions();
    weighted.positionWeighted = true;
    const Model a = buildModel(ModelId::kRM1, plain);
    const Model b = buildModel(ModelId::kRM1, weighted);
    BatchGenerator ga(a.workload), gb(b.workload);
    EXPECT_GT(gb.inputBytes(64), ga.inputBytes(64));
}

}  // namespace
}  // namespace recstack
