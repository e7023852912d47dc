/**
 * @file
 * Tests of the Characterizer / SweepCache / regression-study layer.
 * Uses tiny model options so runs stay fast; the mechanisms under
 * test are size independent.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/regression_study.h"
#include "core/sweep.h"
#include "graph/executor.h"
#include "grid_digest.h"
#include "obs/metrics.h"

namespace recstack {
namespace {

ModelOptions
testOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

TEST(Characterizer, CpuRunProducesFullPayload)
{
    Characterizer c(testOptions());
    const Platform bdw = makeCpuPlatform(broadwellConfig());
    const RunResult r = c.run(ModelId::kRM1, bdw, 16);

    EXPECT_EQ(r.kind, PlatformKind::kCpu);
    EXPECT_EQ(r.batch, 16);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.counters.uopsRetired, 0u);
    EXPECT_NEAR(r.topdown.l1Sum(), 1.0, 1e-9);
    // Breakdown covers the whole run.
    double breakdown_total = r.breakdown.total();
    EXPECT_NEAR(breakdown_total, r.seconds, r.seconds * 1e-9);
    // Data loading is included (paper methodology).
    EXPECT_GT(r.breakdown.fraction("DataLoad"), 0.0);
}

TEST(Characterizer, GpuRunProducesFullPayload)
{
    Characterizer c(testOptions());
    const Platform gtx = makeGpuPlatform(gtx1080TiConfig());
    const RunResult r = c.run(ModelId::kRM1, gtx, 16);

    EXPECT_EQ(r.kind, PlatformKind::kGpu);
    EXPECT_GT(r.gpu.transferSeconds, 0.0);
    EXPECT_GT(r.gpu.kernelSeconds, 0.0);
    EXPECT_NEAR(r.seconds, r.gpu.totalSeconds, 1e-15);
    EXPECT_GT(r.breakdown.fraction("DataTransfer"), 0.0);
}

TEST(Characterizer, DeterministicRuns)
{
    Characterizer c1(testOptions(), 42);
    Characterizer c2(testOptions(), 42);
    const Platform bdw = makeCpuPlatform(broadwellConfig());
    const RunResult a = c1.run(ModelId::kNCF, bdw, 8);
    const RunResult b = c2.run(ModelId::kNCF, bdw, 8);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.counters.uopsRetired, b.counters.uopsRetired);
}

TEST(Characterizer, LatencyGrowsWithBatch)
{
    Characterizer c(testOptions());
    const Platform bdw = makeCpuPlatform(broadwellConfig());
    const double s16 = c.run(ModelId::kRM2, bdw, 16).seconds;
    const double s256 = c.run(ModelId::kRM2, bdw, 256).seconds;
    EXPECT_GT(s256, s16 * 4);
}

TEST(Characterizer, ModelCacheReused)
{
    Characterizer c(testOptions());
    const Model& first = c.model(ModelId::kWnD);
    const Model& second = c.model(ModelId::kWnD);
    EXPECT_EQ(&first, &second);
}

uint64_t
executorCounter(const char* name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/**
 * The profiles the paper's methodology asks for: data loading, then
 * an interpreted kProfileOnly pass over the builder's net, op for op,
 * on a fresh shape-only workspace (sharing @c store when set).
 */
std::vector<KernelProfile>
interpretedProfiles(const Model& model, int64_t batch,
                    EmbeddingStore* store)
{
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    ws.attachStore(store);
    BatchGenerator gen(model.workload);
    gen.declare(ws, batch);
    std::vector<KernelProfile> out{gen.dataLoadProfile(batch)};
    for (const OpExecRecord& record :
         Executor::run(model.net, ws, ExecMode::kProfileOnly).records) {
        out.push_back(record.profile);
    }
    return out;
}

/**
 * Characterizer::profiles is op-for-op the interpreted executor's
 * lowering (the golden-figure contract) at every batch, including a
 * batch revisited after others, with and without a store, and it
 * lowers without running the executor.
 */
TEST(Characterizer, ProfilesMatchInterpretedRun)
{
    for (const bool with_store : {false, true}) {
        Characterizer c(testOptions());
        for (ModelId id : allModels()) {
            EmbeddingStore* store =
                with_store ? c.enableStore(id) : nullptr;
            for (const int64_t batch : {64, 1, 1024, 64}) {
                SCOPED_TRACE(std::string(modelName(id)) + " b" + std::to_string(batch) +
                             (with_store ? " store" : ""));
                const uint64_t runs = executorCounter("executor.runs");
                const uint64_t ops = executorCounter("executor.ops");
                const std::vector<KernelProfile> got = c.profiles(id, batch);
                EXPECT_EQ(executorCounter("executor.runs"), runs);
                EXPECT_EQ(executorCounter("executor.ops"), ops);

                const std::vector<KernelProfile> want =
                    interpretedProfiles(c.model(id), batch, store);
                ASSERT_EQ(got.size(), want.size());
                for (size_t i = 0; i < got.size(); ++i) {
                    const KernelProfile& a = got[i];
                    const KernelProfile& b = want[i];
                    EXPECT_EQ(a.opType, b.opType) << "op " << i;
                    EXPECT_EQ(a.opName, b.opName) << "op " << i;
                    EXPECT_EQ(a.fmaFlops, b.fmaFlops) << "op " << i;
                    EXPECT_EQ(a.vecElemOps, b.vecElemOps) << "op " << i;
                    EXPECT_EQ(a.scalarOps, b.scalarOps) << "op " << i;
                    EXPECT_EQ(a.codeRegion, b.codeRegion) << "op " << i;
                    EXPECT_EQ(a.codeFootprintBytes, b.codeFootprintBytes)
                        << "op " << i;
                    EXPECT_EQ(a.bytesRead(), b.bytesRead()) << "op " << i;
                    EXPECT_EQ(a.bytesWritten(), b.bytesWritten())
                        << "op " << i;
                    EXPECT_EQ(a.totalBranches(), b.totalBranches())
                        << "op " << i;
                    EXPECT_EQ(a.streams.size(), b.streams.size())
                        << "op " << i;
                }
            }
        }
    }
}

TEST(SweepCache, MemoizesRuns)
{
    SweepCache sweep({makeCpuPlatform(broadwellConfig())},
                     testOptions());
    const RunResult& a = sweep.get(ModelId::kNCF, 0, 4);
    const RunResult& b = sweep.get(ModelId::kNCF, 0, 4);
    EXPECT_EQ(&a, &b);
}

TEST(SweepCache, SpeedupBaselineIsOne)
{
    SweepCache sweep({makeCpuPlatform(broadwellConfig()),
                      makeCpuPlatform(cascadeLakeConfig())},
                     testOptions());
    EXPECT_DOUBLE_EQ(sweep.speedupOverBaseline(ModelId::kNCF, 0, 8),
                     1.0);
    EXPECT_GT(sweep.speedupOverBaseline(ModelId::kNCF, 1, 8), 1.0);
}

/**
 * The tiny grid of grid_digest.h, read point by point through get():
 * the serial path every faster fill must reproduce.
 */
TEST(SweepCache, GridDigestIsPinned)
{
    SweepCache sweep(allPlatformsWithPim(), digestGridOptions());
    const uint64_t digest = gridDigest(sweep);
    EXPECT_EQ(digest, kPinnedGridDigest)
        << std::hex << "digest 0x" << digest;
}

TEST(SweepCache, PaperBatchAxes)
{
    const auto batches = paperBatchSizes();
    EXPECT_EQ(batches.front(), 1);
    EXPECT_EQ(batches.back(), 16384);
    for (size_t i = 1; i < batches.size(); ++i) {
        EXPECT_EQ(batches[i], batches[i - 1] * 4);
    }
    EXPECT_EQ(breakdownBatchSizes().size(), 4u);
}

TEST(RegressionStudy, FeatureExtraction)
{
    ModelFeatures f;
    f.numTables = 8;
    f.lookupsPerTable = 80;
    f.latentDim = 32;
    f.fcParams = 1000;
    f.embParams = 4000;
    f.fcTopParams = 600;
    f.attention = true;
    const auto x = regressionFeatures(f, 64);
    const auto names = regressionFeatureNames();
    ASSERT_EQ(x.size(), names.size());
    EXPECT_DOUBLE_EQ(x[0], 8.0);
    EXPECT_DOUBLE_EQ(x[1], 80.0);
    EXPECT_DOUBLE_EQ(x[5], 1.0);  // attention flag
    EXPECT_DOUBLE_EQ(x[7], 6.0);  // log2(64)
}

TEST(RegressionStudy, FitsAllTargets)
{
    SweepCache sweep({makeCpuPlatform(broadwellConfig())},
                     testOptions());
    const RegressionStudy study =
        runRegressionStudy(sweep, 0, {4, 64});
    EXPECT_EQ(study.observations, 16u);  // 8 models x 2 batches
    ASSERT_EQ(study.fits.size(), study.targetNames.size());
    for (const auto& fit : study.fits) {
        EXPECT_EQ(fit.weights.size(), study.featureNames.size());
        EXPECT_GE(fit.r2, -0.5);
        EXPECT_LE(fit.r2, 1.0 + 1e-9);
    }
}

TEST(RegressionStudy, RejectsGpuPlatform)
{
    SweepCache sweep({makeGpuPlatform(t4Config())}, testOptions());
    EXPECT_DEATH(runRegressionStudy(sweep, 0, {4}), "CPU platform");
}

TEST(RegressionStudy, RejectsOutOfRangePlatform)
{
    SweepCache sweep({makeCpuPlatform(broadwellConfig())},
                     testOptions());
    EXPECT_DEATH(runRegressionStudy(sweep, 1, {4}),
                 "platform index out of range");
}


TEST(Characterizer, SeedStability)
{
    // Different sampling seeds perturb the sampled cache/branch
    // traces; end-to-end latency must stay within a narrow band or
    // the sampling strategy is too coarse.
    const Platform bdw = makeCpuPlatform(broadwellConfig());
    std::vector<double> seconds;
    for (uint64_t seed : {11ull, 222ull, 3333ull}) {
        Characterizer c(testOptions(), seed);
        seconds.push_back(c.run(ModelId::kRM1, bdw, 64).seconds);
    }
    const double lo = *std::min_element(seconds.begin(), seconds.end());
    const double hi = *std::max_element(seconds.begin(), seconds.end());
    EXPECT_LT(hi / lo, 1.10);
}

TEST(Characterizer, TopDownStableAcrossSeeds)
{
    const Platform bdw = makeCpuPlatform(broadwellConfig());
    Characterizer a(testOptions(), 5);
    Characterizer b(testOptions(), 6);
    const TopDownL1 ta = a.run(ModelId::kRM2, bdw, 64).topdown.l1;
    const TopDownL1 tb = b.run(ModelId::kRM2, bdw, 64).topdown.l1;
    EXPECT_NEAR(ta.retiring, tb.retiring, 0.05);
    EXPECT_NEAR(ta.backendBound, tb.backendBound, 0.05);
}

}  // namespace
}  // namespace recstack
