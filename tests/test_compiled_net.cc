/**
 * @file
 * CompiledNet planner tests: fusion-pass structure, liveness/arena
 * invariants (aliased buffers never live together; planned bytes
 * never exceed the naive per-blob sum), profile equivalence with the
 * interpreted executor, and workspace safety when interpreted runs follow compiled ones.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "graph/executor.h"
#include "models/model.h"
#include "ops/fused.h"
#include "workload/batch_generator.h"

namespace recstack {
namespace {

ModelOptions
testOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

const ModelId kAllModels[] = {ModelId::kNCF, ModelId::kRM1, ModelId::kRM2,
                              ModelId::kRM3, ModelId::kWnD,
                              ModelId::kMTWnD, ModelId::kDIN,
                              ModelId::kDIEN};

/** Shape-only workspace with params + generator inputs declared. */
void
declareAll(const Model& model, int64_t batch, Workspace* ws)
{
    ws->setShapeOnly(true);
    model.declareParams(*ws);
    BatchGenerator gen(model.workload);
    gen.declare(*ws, batch);
}

size_t
countFusions(const CompiledNet& net, const std::string& kind)
{
    size_t n = 0;
    for (const FusionDecision& f : net.fusions()) {
        n += f.kind == kind ? 1 : 0;
    }
    return n;
}

TEST(CompiledNetFusion, NcfFoldsConcatAndActivations)
{
    const Model model = buildModel(ModelId::kNCF, testOptions());
    const auto net = CompiledNet::compile(model.net);
    EXPECT_LT(net->opCount(), net->originalOpCount());
    EXPECT_GE(countFusions(*net, "fc+act"), 1u);
    // NCF's tower merge: Concat({gmf, mlp_out}) feeding the top FC
    // must fold into a two-block FusedFC.
    EXPECT_GE(countFusions(*net, "concat+fc"), 1u);
    bool multi_block = false;
    for (const Operator* op : net->ops()) {
        if (const auto* ff = dynamic_cast<const FusedFCOp*>(op)) {
            multi_block |= ff->numBlocks() >= 2;
        }
    }
    EXPECT_TRUE(multi_block);
}

TEST(CompiledNetFusion, DienFusesEveryUnrolledStep)
{
    const ModelOptions opts = testOptions();
    const Model model = buildModel(ModelId::kDIEN, opts);
    const auto net = CompiledNet::compile(model.net);
    // Layer 1 is a plain GRU, layer 2 an AUGRU; one fused step op per
    // timestep each.
    EXPECT_EQ(countFusions(*net, "gru-step"),
              static_cast<size_t>(opts.dienSteps));
    EXPECT_EQ(countFusions(*net, "augru-step"),
              static_cast<size_t>(opts.dienSteps));
    size_t steps = 0;
    size_t att_steps = 0;
    for (const Operator* op : net->ops()) {
        if (const auto* gs = dynamic_cast<const GRUStepOp*>(op)) {
            ++steps;
            att_steps += gs->attentional() ? 1 : 0;
        }
    }
    EXPECT_EQ(steps, static_cast<size_t>(2 * opts.dienSteps));
    EXPECT_EQ(att_steps, static_cast<size_t>(opts.dienSteps));
}

TEST(CompiledNetFusion, FusionOffPreservesSchedule)
{
    const Model model = buildModel(ModelId::kDIEN, testOptions());
    CompileOptions opts;
    opts.fuseOps = false;
    const auto net = CompiledNet::compile(model.net, opts);
    ASSERT_EQ(net->opCount(), net->originalOpCount());
    EXPECT_TRUE(net->fusions().empty());
    for (size_t i = 0; i < net->opCount(); ++i) {
        EXPECT_EQ(net->ops()[i], model.net.ops()[i].get());
    }
}

TEST(CompiledNetPlan, AliasedBlobsNeverLiveTogether)
{
    for (ModelId id : kAllModels) {
        const Model model = buildModel(id, testOptions());
        const auto net = CompiledNet::compile(model.net);
        for (int64_t batch : {int64_t{1}, int64_t{64}, int64_t{1024}}) {
            Workspace ws;
            declareAll(model, batch, &ws);
            const NetPlan& plan = net->plan(ws, batch);
            const auto& blobs = net->blobs();

            size_t in_arena = 0;
            for (size_t a = 0; a < blobs.size(); ++a) {
                if (plan.offsets[a] == kNoArenaOffset) {
                    continue;
                }
                ++in_arena;
                ASSERT_EQ(blobs[a].role, BlobRole::kActivation);
                ASSERT_LE(plan.offsets[a] + plan.bytes[a],
                          plan.arenaBytes);
                for (size_t b = 0; b < a; ++b) {
                    if (plan.offsets[b] == kNoArenaOffset) {
                        continue;
                    }
                    const bool bytes_overlap =
                        plan.offsets[a] <
                            plan.offsets[b] + plan.bytes[b] &&
                        plan.offsets[b] < plan.offsets[a] + plan.bytes[a];
                    const bool lives_overlap =
                        blobs[a].def <= blobs[b].lastUse &&
                        blobs[b].def <= blobs[a].lastUse;
                    EXPECT_FALSE(bytes_overlap && lives_overlap)
                        << model.name << " b" << batch << ": '"
                        << blobs[a].name << "' and '" << blobs[b].name
                        << "' share arena bytes while both live";
                }
            }
            EXPECT_GT(in_arena, 0u) << model.name;
            // Planning must never cost more than per-blob allocation,
            // and fusion alone must never add activations.
            EXPECT_LE(plan.arenaBytes, plan.fusedActivationBytes)
                << model.name << " b" << batch;
            EXPECT_LE(plan.fusedActivationBytes,
                      plan.naiveActivationBytes)
                << model.name << " b" << batch;
        }
    }
}

TEST(CompiledNetPlan, ServingModelsMeetTheSixtyPercentTarget)
{
    // The acceptance bar of the memory planner: RM2 and DIEN fit in
    // <= 60% of the naive sum at serving batch sizes.
    for (ModelId id : {ModelId::kRM2, ModelId::kDIEN}) {
        const Model model = buildModel(id, testOptions());
        const auto net = CompiledNet::compile(model.net);
        Workspace ws;
        declareAll(model, 256, &ws);
        const NetPlan& plan = net->plan(ws, 256);
        EXPECT_LE(static_cast<double>(plan.arenaBytes),
                  0.60 * static_cast<double>(plan.naiveActivationBytes))
            << model.name;
    }
}

TEST(CompiledNetPlan, PlansAreMemoizedPerBatch)
{
    const Model model = buildModel(ModelId::kRM1, testOptions());
    const auto net = CompiledNet::compile(model.net);
    Workspace ws;
    declareAll(model, 64, &ws);
    const NetPlan* p64 = &net->plan(ws, 64);
    EXPECT_EQ(p64, &net->plan(ws, 64));

    Workspace ws2;
    declareAll(model, 128, &ws2);
    const NetPlan* p128 = &net->plan(ws2, 128);
    EXPECT_NE(p64, p128);
    EXPECT_EQ(p128->batch, 128);
}

TEST(CompiledNetPlan, CompileCountIncrements)
{
    const Model model = buildModel(ModelId::kNCF, testOptions());
    const uint64_t before = CompiledNet::compileCount();
    const auto net = CompiledNet::compile(model.net);
    (void)net;
    EXPECT_EQ(CompiledNet::compileCount(), before + 1);
}

TEST(CompiledNetProfiles, UnfusedPlanMatchesInterpretedProfiles)
{
    // The characterizer profiles through an unfused compilation; its
    // cached profiles must be indistinguishable from an interpreted
    // kProfileOnly run (the golden-figure contract).
    for (ModelId id : kAllModels) {
        const Model model = buildModel(id, testOptions());
        Workspace ws;
        declareAll(model, 64, &ws);
        const NetExecResult legacy =
            Executor::run(model.net, ws, ExecMode::kProfileOnly);

        CompileOptions opts;
        opts.fuseOps = false;
        const auto net = CompiledNet::compile(model.net, opts);
        const NetPlan& plan = net->plan(ws, 64);

        ASSERT_EQ(plan.profiles.size(), legacy.records.size());
        for (size_t i = 0; i < plan.profiles.size(); ++i) {
            const KernelProfile& a = plan.profiles[i];
            const KernelProfile& b = legacy.records[i].profile;
            EXPECT_EQ(a.opType, b.opType) << model.name << " op " << i;
            EXPECT_EQ(a.opName, b.opName);
            EXPECT_EQ(a.fmaFlops, b.fmaFlops);
            EXPECT_EQ(a.vecElemOps, b.vecElemOps);
            EXPECT_EQ(a.scalarOps, b.scalarOps);
            EXPECT_EQ(a.codeRegion, b.codeRegion);
            EXPECT_EQ(a.codeFootprintBytes, b.codeFootprintBytes);
            EXPECT_EQ(a.bytesRead(), b.bytesRead());
            EXPECT_EQ(a.bytesWritten(), b.bytesWritten());
            EXPECT_EQ(a.totalBranches(), b.totalBranches());
            EXPECT_EQ(a.streams.size(), b.streams.size());
        }
    }
}

TEST(CompiledNetExec, InterpretedRunAfterCompiledRunStaysSafe)
{
    // A compiled run leaves arena views in the workspace. A later
    // interpreted run on the same workspace must not write through
    // those stale aliased views (Workspace::ensure never reuses a
    // view), and must produce the same numbers.
    const Model model = buildModel(ModelId::kNCF, testOptions());
    auto net = CompiledNet::compile(model.net);

    Workspace ws;
    Arena arena;
    model.initParams(ws);
    BatchGenerator gen(model.workload, /*seed=*/7);
    gen.materialize(ws, 32);
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    Executor::run(*net, ws, arena, 32, opts);
    const Tensor compiled_out = ws.get(model.outputBlob);
    // Pick any arena-placed activation: after the compiled run it is
    // a view; after the interpreted run it must be owned again.
    const NetPlan& plan = net->plan(ws, 32);
    std::string arena_blob;
    for (size_t i = 0; i < net->blobs().size(); ++i) {
        if (plan.offsets[i] != kNoArenaOffset) {
            arena_blob = net->blobs()[i].name;
            break;
        }
    }
    ASSERT_FALSE(arena_blob.empty());
    EXPECT_FALSE(ws.get(arena_blob).ownsStorage());

    Executor::run(model.net, ws, opts);
    const Tensor& interpreted_out = ws.get(model.outputBlob);
    EXPECT_TRUE(ws.get(arena_blob).ownsStorage());
    ASSERT_EQ(compiled_out.shape(), interpreted_out.shape());
    EXPECT_EQ(std::memcmp(compiled_out.data<float>(),
                          interpreted_out.data<float>(),
                          compiled_out.byteSize()),
              0);
}

TEST(CompiledNetExec, ProfileOnlyReturnsCachedProfilesWithoutBinding)
{
    const Model model = buildModel(ModelId::kRM1, testOptions());
    auto net = CompiledNet::compile(model.net);
    Workspace ws;
    declareAll(model, 64, &ws);
    Arena arena;
    ExecOptions opts;
    opts.mode = ExecMode::kProfileOnly;
    const NetExecResult result = Executor::run(*net, ws, arena, 64, opts);
    EXPECT_EQ(result.hostSeconds, 0.0);
    EXPECT_EQ(arena.capacity(), 0u);
    ASSERT_EQ(result.records.size(), net->opCount());
    for (const OpExecRecord& rec : result.records) {
        EXPECT_EQ(rec.hostSeconds, 0.0);
        EXPECT_FALSE(rec.profile.opType.empty());
    }
}

}  // namespace
}  // namespace recstack
