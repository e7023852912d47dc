/**
 * @file
 * Differential harness for intra-op parallelism, parameterized over
 * the {ISA × thread-width} matrix: for every model builder and every
 * kernel tier, Executor::run at 1 thread must be bit-identical to N
 * threads — every float of every blob, and every KernelProfile
 * aggregate. This is the determinism contract of the chunked-range
 * pool (disjoint-output partitioning, no cross-chunk reductions;
 * docs/parallelism.md) and it must hold per tier: vector kernels may
 * reorder accumulation relative to scalar (docs/vectorization.md),
 * but never relative to themselves across thread counts. Tiers the
 * host cannot execute skip rather than silently demoting to scalar.
 *
 * Runs under RECSTACK_SANITIZE=thread as well (ctest -L sanitize):
 * the same executions that prove bit-equality also race-check the
 * pool and every parallel kernel on both tiers.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <tuple>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "graph/executor.h"
#include "grid_digest.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "serve/serving_node.h"

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
        << "blob '" << blob << "' diverges between 1 and N threads";
}

void
expectStreamsIdentical(const MemStream& a, const MemStream& b)
{
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.chunkBytes, b.chunkBytes);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.strideBytes, b.strideBytes);
    EXPECT_EQ(a.isWrite, b.isWrite);
    EXPECT_DOUBLE_EQ(a.zipfExponent, b.zipfExponent);
    EXPECT_DOUBLE_EQ(a.mlp, b.mlp);
}

/** Full KernelProfile equality (profiles must not see thread count). */
void
expectProfilesIdentical(const KernelProfile& a, const KernelProfile& b)
{
    EXPECT_EQ(a.opType, b.opType);
    EXPECT_EQ(a.opName, b.opName);
    EXPECT_EQ(a.fmaFlops, b.fmaFlops);
    EXPECT_EQ(a.vecElemOps, b.vecElemOps);
    EXPECT_EQ(a.scalarOps, b.scalarOps);
    EXPECT_EQ(a.simdScalableOps, b.simdScalableOps);
    EXPECT_EQ(a.reloadLoadElems, b.reloadLoadElems);
    EXPECT_EQ(a.codeFootprintBytes, b.codeFootprintBytes);
    EXPECT_EQ(a.codeRegion, b.codeRegion);
    EXPECT_EQ(a.codeIterations, b.codeIterations);
    EXPECT_EQ(a.serialSteps, b.serialSteps);
    EXPECT_EQ(a.gemmWidth, b.gemmWidth);
    EXPECT_EQ(a.dispatchOps, b.dispatchOps);
    EXPECT_EQ(a.dispatchCodeBytes, b.dispatchCodeBytes);
    EXPECT_EQ(a.totalBranches(), b.totalBranches());
    EXPECT_EQ(a.bytesRead(), b.bytesRead());
    EXPECT_EQ(a.bytesWritten(), b.bytesWritten());
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (size_t i = 0; i < a.streams.size(); ++i) {
        expectStreamsIdentical(a.streams[i], b.streams[i]);
    }
    ASSERT_EQ(a.branches.size(), b.branches.size());
    for (size_t i = 0; i < a.branches.size(); ++i) {
        EXPECT_EQ(a.branches[i].count, b.branches[i].count);
        EXPECT_DOUBLE_EQ(a.branches[i].takenProbability,
                         b.branches[i].takenProbability);
        EXPECT_DOUBLE_EQ(a.branches[i].randomness,
                         b.branches[i].randomness);
        EXPECT_EQ(a.branches[i].scalesWithSimd,
                  b.branches[i].scalesWithSimd);
    }
}

/** One full-numerics run at the given width; fresh workspace. */
NetExecResult
runAt(const Model& model, int num_threads, int64_t batch, Workspace* ws)
{
    model.initParams(*ws);
    BatchGenerator gen(model.workload, /*seed=*/1234);
    gen.materialize(*ws, batch);
    ExecOptions opts;
    opts.mode = ExecMode::kFull;
    opts.numThreads = num_threads;
    return Executor::run(model.net, *ws, opts);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<ModelId, int, KernelIsa>>
{
};

TEST_P(ParallelEquivalence, BitIdenticalAcrossThreadCounts)
{
    const ModelId id = std::get<0>(GetParam());
    const int threads = std::get<1>(GetParam());
    const KernelIsa isa = std::get<2>(GetParam());
    const int64_t batch = 16;

    if (!kernelIsaSupported(isa)) {
        GTEST_SKIP() << kernelIsaName(isa)
                     << " tier unsupported on this host/build";
    }
    IsaScope tier(isa);

    const Model model = buildModel(id, testOptions());

    Workspace serial_ws;
    const NetExecResult serial = runAt(model, 1, batch, &serial_ws);
    Workspace parallel_ws;
    const NetExecResult parallel =
        runAt(model, threads, batch, &parallel_ws);

    // Every blob the two runs produced — outputs and every
    // intermediate — must agree to the bit.
    std::vector<std::string> blobs = serial_ws.names();
    ASSERT_EQ(blobs.size(), parallel_ws.names().size());
    for (const std::string& blob : blobs) {
        ASSERT_TRUE(parallel_ws.has(blob)) << blob;
        expectTensorsIdentical(blob, serial_ws.get(blob),
                               parallel_ws.get(blob));
    }
    ASSERT_TRUE(serial_ws.has(model.outputBlob));

    // And the KernelProfile aggregates must be identical: the
    // platform models may never observe the thread count.
    ASSERT_EQ(serial.records.size(), parallel.records.size());
    ASSERT_EQ(serial.records.size(), model.net.opCount());
    for (size_t i = 0; i < serial.records.size(); ++i) {
        expectProfilesIdentical(serial.records[i].profile,
                                parallel.records[i].profile);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ParallelEquivalence,
    ::testing::Combine(::testing::Values(ModelId::kNCF, ModelId::kRM1,
                                         ModelId::kRM2, ModelId::kRM3,
                                         ModelId::kWnD, ModelId::kMTWnD,
                                         ModelId::kDIN, ModelId::kDIEN),
                       ::testing::Values(2, 8),
                       ::testing::Values(KernelIsa::kScalar,
                                         KernelIsa::kAvx2)),
    [](const ::testing::TestParamInfo<std::tuple<ModelId, int, KernelIsa>>&
           info) {
        std::string name = modelName(std::get<0>(info.param));
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';  // "MT-WnD" -> "MT_WnD"
            }
        }
        return name + "_t" + std::to_string(std::get<1>(info.param)) +
               "_" + kernelIsaName(std::get<2>(info.param));
    });

/** Both tiers the host supports, for the variant tests below. */
std::vector<KernelIsa>
supportedIsas()
{
    std::vector<KernelIsa> isas = {KernelIsa::kScalar};
    if (kernelIsaSupported(KernelIsa::kAvx2)) {
        isas.push_back(KernelIsa::kAvx2);
    }
    return isas;
}

/** The position-weighted DLRM variant exercises SLWS. */
TEST(ParallelEquivalenceVariants, PositionWeightedRm1)
{
    ModelOptions opts = testOptions();
    opts.positionWeighted = true;
    const Model model = buildModel(ModelId::kRM1, opts);
    for (const KernelIsa isa : supportedIsas()) {
        SCOPED_TRACE(kernelIsaName(isa));
        IsaScope tier(isa);
        Workspace a;
        runAt(model, 1, 16, &a);
        Workspace b;
        runAt(model, 8, 16, &b);
        for (const std::string& blob : a.names()) {
            expectTensorsIdentical(blob, a.get(blob), b.get(blob));
        }
    }
}

/** The fused-GRU DIEN variant exercises the batched GRU steps. */
TEST(ParallelEquivalenceVariants, FusedGruDien)
{
    ModelOptions opts = testOptions();
    opts.dienFusedGru = true;
    const Model model = buildModel(ModelId::kDIEN, opts);
    for (const KernelIsa isa : supportedIsas()) {
        SCOPED_TRACE(kernelIsaName(isa));
        IsaScope tier(isa);
        Workspace a;
        runAt(model, 1, 16, &a);
        Workspace b;
        runAt(model, 8, 16, &b);
        for (const std::string& blob : a.names()) {
            expectTensorsIdentical(blob, a.get(blob), b.get(blob));
        }
    }
}

/** Serving engine: virtual-time stats are width-invariant too. */
TEST(ParallelEquivalenceVariants, EngineStatsInvariantInWidth)
{
    // Same model, same config, different intra-op widths: every
    // virtual-time statistic must be identical (only hostSeconds may
    // move). Numeric mode so kernels genuinely run on the pool.
    SweepCache sweep(allPlatforms(), [] {
        ModelOptions opts = tinyOptions();
        opts.tableScale = 0.01;
        return opts;
    }());
    QueryScheduler sched(&sweep, {1, 16, 256, 4096});
    ServingNode engine(&sched, ModelId::kNCF, 0);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.25;
    cfg.execMode = ExecMode::kNumericOnly;
    cfg.numThreads = 1;
    const EngineResult serial = engine.run(cfg);
    cfg.numThreads = 8;
    const EngineResult wide = engine.run(cfg);
    EXPECT_EQ(serial.aggregate.samplesServed,
              wide.aggregate.samplesServed);
    EXPECT_EQ(serial.aggregate.batchesServed,
              wide.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(serial.aggregate.meanLatency,
                     wide.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(serial.aggregate.p99Latency,
                     wide.aggregate.p99Latency);
    EXPECT_EQ(wide.intraOpThreads, 8);
    EXPECT_GT(wide.hostSecondsPerBatch, 0.0);
}

/** PIM points simulated so far in this process (one sample each). */
uint64_t
pimPointsSimulated()
{
    return obs::MetricsRegistry::global()
        .histogram("pim.offload_seconds", 0.0, 0.1, 200)
        .snapshot()
        .total;
}

/**
 * SweepCache::fill on the pool reproduces the serial get() digest at
 * width 1 and 4 and on a partly filled cache. Counting PIM
 * simulations shows fill computed every missing point itself, and
 * that the digest's get() calls then only read the table.
 */
TEST(SweepFill, MatchesGetAtAnyWidth)
{
    const std::vector<ModelId> models = allModels();
    const uint64_t pim_points = models.size() * digestGridBatches().size();
    for (const int width : {1, 4}) {
        SCOPED_TRACE(width);
        IntraOpScope scope(width);
        SweepCache sweep(allPlatformsWithPim(), digestGridOptions());
        const uint64_t before = pimPointsSimulated();
        sweep.fill(models, digestGridBatches());
        EXPECT_EQ(pimPointsSimulated() - before, pim_points);
        EXPECT_EQ(gridDigest(sweep), kPinnedGridDigest);
        EXPECT_EQ(pimPointsSimulated() - before, pim_points);
    }

    // Partly filled: one whole (model, batch) column (its PIM point
    // included) and one CPU point of another column.
    SweepCache sweep(allPlatformsWithPim(), digestGridOptions());
    for (size_t p = 0; p < sweep.platforms().size(); ++p) {
        (void)sweep.get(ModelId::kRM1, p, 64);
    }
    (void)sweep.get(ModelId::kDIN, 0, 1024);
    IntraOpScope scope(4);
    const uint64_t before = pimPointsSimulated();
    sweep.fill(models, digestGridBatches());
    EXPECT_EQ(pimPointsSimulated() - before, pim_points - 1);
    EXPECT_EQ(gridDigest(sweep), kPinnedGridDigest);
    EXPECT_EQ(pimPointsSimulated() - before, pim_points - 1);
}

}  // namespace
}  // namespace recstack
