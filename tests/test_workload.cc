/**
 * @file
 * Tests for the BatchGenerator input synthesis.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "models/model.h"
#include "workload/batch_generator.h"
#include "workload/rate_envelope.h"

namespace recstack {
namespace {

WorkloadSpec
demoSpec()
{
    WorkloadSpec spec;
    spec.categorical.push_back({.indicesBlob = "idx0", .lengthsBlob = "len0",
                                .tableRows = 1000, .lookupsPerSample = 5,
                                .zipfExponent = 0.0, .weightsBlob = ""});
    spec.categorical.push_back({.indicesBlob = "idx1", .lengthsBlob = "len1",
                                .tableRows = 200, .lookupsPerSample = 2,
                                .zipfExponent = 0.9, .weightsBlob = ""});
    spec.continuous.push_back({"dense", 13});
    return spec;
}

TEST(BatchGenerator, MaterializeShapesAndTypes)
{
    Workspace ws;
    BatchGenerator gen(demoSpec());
    gen.materialize(ws, 8);

    EXPECT_EQ(ws.get("idx0").shape(), (std::vector<int64_t>{40}));
    EXPECT_EQ(ws.get("idx0").dtype(), DType::kInt64);
    EXPECT_EQ(ws.get("len0").shape(), (std::vector<int64_t>{8}));
    EXPECT_EQ(ws.get("len0").dtype(), DType::kInt32);
    EXPECT_EQ(ws.get("idx1").numel(), 16);
    EXPECT_EQ(ws.get("dense").shape(), (std::vector<int64_t>{8, 13}));
}

TEST(BatchGenerator, IndicesInTableRange)
{
    Workspace ws;
    BatchGenerator gen(demoSpec());
    gen.materialize(ws, 64);
    const int64_t* idx = ws.get("idx0").data<int64_t>();
    for (int64_t i = 0; i < ws.get("idx0").numel(); ++i) {
        ASSERT_GE(idx[i], 0);
        ASSERT_LT(idx[i], 1000);
    }
    const int64_t* idx1 = ws.get("idx1").data<int64_t>();
    for (int64_t i = 0; i < ws.get("idx1").numel(); ++i) {
        ASSERT_LT(idx1[i], 200);
    }
}

TEST(BatchGenerator, LengthsMatchLookups)
{
    Workspace ws;
    BatchGenerator gen(demoSpec());
    gen.materialize(ws, 4);
    const int32_t* len = ws.get("len0").data<int32_t>();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(len[i], 5);
    }
}

TEST(BatchGenerator, DeterministicPerSeedAndBatch)
{
    Workspace a, b;
    BatchGenerator g1(demoSpec(), 99), g2(demoSpec(), 99);
    g1.materialize(a, 16);
    g2.materialize(b, 16);
    const int64_t* ia = a.get("idx0").data<int64_t>();
    const int64_t* ib = b.get("idx0").data<int64_t>();
    for (int64_t i = 0; i < a.get("idx0").numel(); ++i) {
        ASSERT_EQ(ia[i], ib[i]);
    }
}

TEST(BatchGenerator, ZipfSkewConcentratesIndices)
{
    WorkloadSpec skew;
    skew.categorical.push_back({.indicesBlob = "idx", .lengthsBlob = "len",
                                .tableRows = 100000, .lookupsPerSample = 50,
                                .zipfExponent = 1.1, .weightsBlob = ""});
    Workspace ws;
    BatchGenerator gen(skew);
    gen.materialize(ws, 64);
    const int64_t* idx = ws.get("idx").data<int64_t>();
    int head = 0;
    const int64_t n = ws.get("idx").numel();
    for (int64_t i = 0; i < n; ++i) {
        head += idx[i] < 1000;
    }
    // Strong skew: far more than the uniform 1% expectation.
    EXPECT_GT(head, n / 20);
}

TEST(BatchGenerator, DeclareCreatesShapeOnly)
{
    Workspace ws;
    BatchGenerator gen(demoSpec());
    gen.declare(ws, 1024);
    EXPECT_FALSE(ws.get("idx0").materialized());
    EXPECT_EQ(ws.get("idx0").numel(), 5120);
    EXPECT_FALSE(ws.get("dense").materialized());
}

TEST(BatchGenerator, InputBytesScaleWithBatch)
{
    BatchGenerator gen(demoSpec());
    const uint64_t b1 = gen.inputBytes(1);
    const uint64_t b64 = gen.inputBytes(64);
    EXPECT_EQ(b64, 64 * b1);
    // 5*8 + 4 + 2*8 + 4 + 13*4 = 116 bytes per sample.
    EXPECT_EQ(b1, 116u);
}

TEST(BatchGenerator, DataLoadProfileScalesWithBatch)
{
    BatchGenerator gen(demoSpec());
    const KernelProfile small = gen.dataLoadProfile(4);
    const KernelProfile large = gen.dataLoadProfile(4096);
    EXPECT_EQ(small.opType, "DataLoad");
    EXPECT_GT(large.vecElemOps, small.vecElemOps * 500);
    EXPECT_GT(large.bytesRead(), small.bytesRead());
    EXPECT_GT(large.totalBranches(), small.totalBranches());
}

TEST(BatchGenerator, RejectsNonPositiveBatch)
{
    Workspace ws;
    BatchGenerator gen(demoSpec());
    EXPECT_DEATH(gen.materialize(ws, 0), "positive");
}

/** FNV-1a over the 8 bytes of each mixed word. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;
    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    }
    void mix(const Tensor& t)
    {
        for (int64_t d : t.shape()) {
            mix(static_cast<uint64_t>(d));
        }
        mix(static_cast<uint64_t>(t.dtype()));
        for (int64_t i = 0; i < t.numel(); ++i) {
            switch (t.dtype()) {
            case DType::kFloat32:
                mix(uint64_t{std::bit_cast<uint32_t>(t.data<float>()[i])});
                break;
            case DType::kInt32:
                mix(static_cast<uint64_t>(t.data<int32_t>()[i]));
                break;
            case DType::kInt64:
                mix(static_cast<uint64_t>(t.data<int64_t>()[i]));
                break;
            }
        }
    }
};

/**
 * FNV-1a over every blob materialize writes, for every model's
 * workload at tiny options (plus the position-weighted DLRM variants,
 * whose weights blobs are the only other nextFloat draws), two seeds
 * and batches 1, 16 and 256. Batch sizes interleave on one generator,
 * so no state kept between calls can go unnoticed.
 */
TEST(BatchGenerator, MaterializeDigestIsPinned)
{
    std::vector<WorkloadSpec> specs;
    for (ModelId id : allModels()) {
        specs.push_back(buildModel(id, tinyOptions()).workload);
    }
    ModelOptions weighted = tinyOptions();
    weighted.positionWeighted = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2, ModelId::kRM3}) {
        specs.push_back(buildModel(id, weighted).workload);
    }
    Fnv f;
    for (const WorkloadSpec& spec : specs) {
        for (uint64_t seed : {42ull, 1234567ull}) {
            BatchGenerator gen(spec, seed);
            for (int64_t batch : {16, 1, 256, 16, 1}) {
                Workspace ws;
                gen.materialize(ws, batch);
                for (const auto& cat : spec.categorical) {
                    f.mix(ws.get(cat.indicesBlob));
                    f.mix(ws.get(cat.lengthsBlob));
                    if (!cat.weightsBlob.empty()) {
                        f.mix(ws.get(cat.weightsBlob));
                    }
                }
                for (const auto& cont : spec.continuous) {
                    f.mix(ws.get(cont.blob));
                }
            }
        }
    }
    EXPECT_EQ(f.h, 0x2b50a24896a4b52eull) << "digest 0x" << std::hex << f.h;
}

/** Batch-size sweep property: everything stays consistent. */
class BatchSweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(BatchSweep, MaterializeAndDeclareAgreeOnShapes)
{
    const int64_t batch = GetParam();
    Workspace real, shape;
    BatchGenerator gen(demoSpec());
    gen.materialize(real, batch);
    gen.declare(shape, batch);
    for (const auto& name : {"idx0", "len0", "idx1", "len1", "dense"}) {
        EXPECT_EQ(real.get(name).shape(), shape.get(name).shape())
            << name;
        EXPECT_EQ(real.get(name).dtype(), shape.get(name).dtype())
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep,
                         ::testing::Values(1, 2, 7, 64, 513, 4096));

TEST(RateEnvelope, ConstantIsFlatUnity)
{
    const RateEnvelope env = RateEnvelope::constant();
    EXPECT_TRUE(env.isConstant());
    for (double t : {0.0, 1.5, 86400.0, 1e7}) {
        EXPECT_DOUBLE_EQ(env.at(t), 1.0);
    }
}

TEST(RateEnvelope, DiurnalPeaksAtOneAndTroughsHalfAPeriodLater)
{
    const double period = 100.0;
    const RateEnvelope env = RateEnvelope::diurnal(period, 0.25, 10.0);
    EXPECT_FALSE(env.isConstant());
    EXPECT_DOUBLE_EQ(env.at(10.0), 1.0);               // peak
    EXPECT_DOUBLE_EQ(env.at(10.0 + period), 1.0);      // periodic
    EXPECT_NEAR(env.at(10.0 + period / 2.0), 0.25, 1e-12);
    // Quarter period sits exactly halfway between trough and peak.
    EXPECT_NEAR(env.at(10.0 + period / 4.0), 0.625, 1e-12);
    for (double t = 0.0; t < 2.0 * period; t += period / 17.0) {
        EXPECT_GT(env.at(t), 0.0);
        EXPECT_LE(env.at(t), 1.0);
    }
}

TEST(RateEnvelope, PiecewiseNormalizesAndInterpolates)
{
    // Max knot 0.8 rescales to 1.0, so 0.4 becomes 0.5.
    const RateEnvelope env =
        RateEnvelope::piecewise({0.0, 10.0, 20.0}, {0.4, 0.8, 0.4});
    EXPECT_DOUBLE_EQ(env.at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(env.at(0.0), 0.5);
    EXPECT_DOUBLE_EQ(env.at(-5.0), 0.5);   // clamps before first knot
    EXPECT_DOUBLE_EQ(env.at(25.0), 0.5);   // clamps after last knot
    EXPECT_NEAR(env.at(5.0), 0.75, 1e-12);  // linear between knots
}

TEST(ModulatedPoisson, ConstantEnvelopeIsBitIdenticalToPoisson)
{
    PoissonProcess plain(5000.0, 7);
    ModulatedPoissonProcess modulated(5000.0, RateEnvelope::constant(),
                                      7);
    for (int i = 0; i < 2000; ++i) {
        ASSERT_DOUBLE_EQ(modulated.next(), plain.next()) << i;
    }
}

TEST(ModulatedPoisson, SameSeedReplaysTheSameStream)
{
    const RateEnvelope env = RateEnvelope::diurnal(1.0, 0.3);
    ModulatedPoissonProcess a(8000.0, env, 99);
    ModulatedPoissonProcess b(8000.0, env, 99);
    ModulatedPoissonProcess c(8000.0, env, 100);
    double prev = -1.0;
    bool diverged = false;
    for (int i = 0; i < 2000; ++i) {
        const double t = a.next();
        ASSERT_DOUBLE_EQ(t, b.next()) << i;
        ASSERT_GT(t, prev) << "timestamps must strictly increase";
        prev = t;
        diverged = diverged || (t != c.next());
    }
    EXPECT_TRUE(diverged) << "different seeds should differ";
}

TEST(ModulatedPoisson, DiurnalThinningTracksTheEnvelopeIntegral)
{
    // Mean multiplier of a full diurnal cycle is (1 + trough) / 2;
    // the thinned count over whole cycles should land near
    // base * horizon * mean (Poisson sd ~ sqrt(count)).
    const double base = 20000.0;
    const double period = 0.5;
    const double trough = 0.2;
    const double horizon = 4.0;  // 8 full cycles
    ModulatedPoissonProcess arrivals(
        base, RateEnvelope::diurnal(period, trough), 42);
    uint64_t count = 0;
    while (arrivals.next() < horizon) {
        ++count;
    }
    const double expected = base * horizon * (1.0 + trough) / 2.0;
    EXPECT_NEAR(static_cast<double>(count), expected,
                6.0 * std::sqrt(expected));
    // And strictly fewer arrivals than the unthinned clock admits.
    PoissonProcess plain(base, 42);
    uint64_t plain_count = 0;
    while (plain.next() < horizon) {
        ++plain_count;
    }
    EXPECT_LT(count, plain_count);
}

}  // namespace
}  // namespace recstack
