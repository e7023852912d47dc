/**
 * @file
 * Differential harness for the compiled-net memory planner: for every
 * model, the compiled executor path (fused kernels + liveness-planned
 * arena aliasing) must produce bit-identical external outputs to the
 * interpreted per-op path with per-blob allocation, at every batch
 * size and intra-op thread width. This is the numerics contract of
 * graph/compiled_net.h: fusion replicates exact fp32 op order, and
 * arena aliasing never overlaps two live buffers.
 *
 * Runs under RECSTACK_SANITIZE=address as well (ctest -L sanitize):
 * the same executions that prove bit-equality also bounds-check every
 * arena-view kernel write.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <tuple>

#include "graph/compiled_net.h"
#include "graph/executor.h"
#include "models/model.h"

namespace recstack {
namespace {

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
        << "blob '" << blob
        << "' diverges between interpreted and compiled execution";
}

/** Seed params + inputs identically to the interpreted reference. */
void
materializeInputs(const Model& model, int64_t batch, Workspace* ws)
{
    model.initParams(*ws);
    BatchGenerator gen(model.workload, /*seed=*/1234);
    gen.materialize(*ws, batch);
}

/// 3 and 17 leave partial 4-row register tiles and partial 16-row
/// FusedFC/GRU gather tiles, also inside width-8 pool chunks.
const int64_t kBatches[] = {1, 3, 17, 64, 1024};

/**
 * The compiled path at intra-op widths 1 and 8 against the interpreted
 * path: every external output memcmp-equal.
 */
void
expectCompiledMatchesInterpreted(const Model& model, int64_t batch)
{
    // Planning off: the interpreted executor, one owned blob per
    // activation.
    Workspace ref_ws;
    materializeInputs(model, batch, &ref_ws);
    ExecOptions ref_opts;
    ref_opts.mode = ExecMode::kNumericOnly;
    ref_opts.numThreads = 1;
    Executor::run(model.net, ref_ws, ref_opts);

    // Planning on: one CompiledNet, shared across thread widths the
    // way ServingNode shares it across workers.
    auto compiled = CompiledNet::compile(model.net);
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        Workspace ws;
        Arena arena;
        materializeInputs(model, batch, &ws);
        ExecOptions opts;
        opts.mode = ExecMode::kNumericOnly;
        opts.numThreads = threads;
        Executor::run(*compiled, ws, arena, batch, opts);
        ASSERT_GT(arena.capacity(), 0u);
        for (const std::string& blob : model.net.externalOutputs()) {
            ASSERT_TRUE(ws.has(blob)) << blob;
            // External outputs stay workspace-owned; callers keep
            // them across requests while the arena is recycled.
            EXPECT_TRUE(ws.get(blob).ownsStorage()) << blob;
            expectTensorsIdentical(blob, ref_ws.get(blob),
                                   ws.get(blob));
        }
    }
}

class PlanEquivalence
    : public ::testing::TestWithParam<std::tuple<ModelId, int64_t>>
{
};

TEST_P(PlanEquivalence, ExternalOutputsBitIdenticalPlanningOnVsOff)
{
    const ModelId id = std::get<0>(GetParam());
    const int64_t batch = std::get<1>(GetParam());
    expectCompiledMatchesInterpreted(buildModel(id, testOptions()), batch);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PlanEquivalence,
    ::testing::Combine(::testing::Values(ModelId::kNCF, ModelId::kRM1,
                                         ModelId::kRM2, ModelId::kRM3,
                                         ModelId::kWnD, ModelId::kMTWnD,
                                         ModelId::kDIN, ModelId::kDIEN),
                       ::testing::ValuesIn(kBatches)),
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

/** The fused-GRU DIEN variant (GRULayerOp) survives the planner too. */
TEST(PlanEquivalenceVariants, FusedGruDien)
{
    ModelOptions opts = testOptions();
    opts.dienFusedGru = true;
    const Model model = buildModel(ModelId::kDIEN, opts);
    for (const int64_t batch : kBatches) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        expectCompiledMatchesInterpreted(model, batch);
    }
}

}  // namespace
}  // namespace recstack
