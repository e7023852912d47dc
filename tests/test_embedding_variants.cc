/**
 * @file
 * Tests for the weighted/mean embedding-bag variants, including
 * algebraic equivalences against the plain SparseLengthsSum.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ops/embedding.h"
#include "store/embedding_store.h"

namespace recstack {
namespace {

void
runOp(Operator& op, Workspace& ws)
{
    op.inferShapes(ws);
    op.run(ws);
}

Workspace
randomBag(int64_t rows, int64_t dim, const std::vector<int64_t>& idx,
          const std::vector<int32_t>& len, uint64_t seed = 5)
{
    Workspace ws;
    Rng rng(seed);
    Tensor table({rows, dim});
    for (int64_t i = 0; i < table.numel(); ++i) {
        table.data<float>()[i] = rng.nextFloat(-1.0f, 1.0f);
    }
    ws.set("table", std::move(table));
    ws.set("idx", Tensor::fromInt64s(
                      {static_cast<int64_t>(idx.size())}, idx));
    ws.set("len", Tensor::fromInt32s(
                      {static_cast<int64_t>(len.size())}, len));
    return ws;
}

TEST(SparseLengthsWeightedSum, HandComputed)
{
    Workspace ws;
    ws.set("table", Tensor::fromFloats({3, 2}, {1, 2, 10, 20, 100, 200}));
    ws.set("w", Tensor::fromFloats({3}, {2.0f, 0.5f, -1.0f}));
    ws.set("idx", Tensor::fromInt64s({3}, {0, 2, 1}));
    ws.set("len", Tensor::fromInt32s({2}, {2, 1}));
    SparseLengthsReduceOp slws(SlsKind::kWeightedSum, "slws", "table", "w",
                               "idx", "len", "y");
    runOp(slws, ws);
    const Tensor& y = ws.get("y");
    EXPECT_FLOAT_EQ(y.at({0, 0}), 2 * 1 + 0.5 * 100);   // 52
    EXPECT_FLOAT_EQ(y.at({0, 1}), 2 * 2 + 0.5 * 200);   // 104
    EXPECT_FLOAT_EQ(y.at({1, 0}), -10);
}

TEST(SparseLengthsWeightedSum, UnitWeightsEqualPlainSum)
{
    const std::vector<int64_t> idx = {3, 1, 4, 1, 5, 2, 6};
    const std::vector<int32_t> len = {3, 4};
    Workspace ws = randomBag(8, 5, idx, len);
    ws.set("w", Tensor::fromFloats(
                    {7}, std::vector<float>(7, 1.0f)));

    SparseLengthsReduceOp slws(SlsKind::kWeightedSum, "slws", "table", "w",
                               "idx", "len", "yw");
    runOp(slws, ws);
    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "ys");
    runOp(sls, ws);

    const Tensor& a = ws.get("yw");
    const Tensor& b = ws.get("ys");
    for (int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_NEAR(a.data<float>()[i], b.data<float>()[i], 1e-5);
    }
}

TEST(SparseLengthsWeightedSum, WeightCountMismatchPanics)
{
    Workspace ws;
    ws.set("table", Tensor({4, 2}));
    ws.set("w", Tensor({2}));
    ws.set("idx", Tensor({3}, DType::kInt64));
    ws.set("len", Tensor({1}, DType::kInt32));
    SparseLengthsReduceOp slws(SlsKind::kWeightedSum, "slws", "table", "w",
                               "idx", "len", "y");
    EXPECT_DEATH(slws.inferShapes(ws), "one weight per lookup");
}

TEST(SparseLengthsMean, AveragesSegments)
{
    Workspace ws;
    ws.set("table", Tensor::fromFloats({3, 2}, {2, 4, 6, 8, 10, 12}));
    ws.set("idx", Tensor::fromInt64s({3}, {0, 1, 2}));
    ws.set("len", Tensor::fromInt32s({2}, {2, 1}));
    SparseLengthsReduceOp mean(SlsKind::kMean, "m", "table", "", "idx",
                               "len", "y");
    runOp(mean, ws);
    const Tensor& y = ws.get("y");
    EXPECT_FLOAT_EQ(y.at({0, 0}), 4);   // (2+6)/2
    EXPECT_FLOAT_EQ(y.at({0, 1}), 6);   // (4+8)/2
    EXPECT_FLOAT_EQ(y.at({1, 0}), 10);
}

TEST(SparseLengthsMean, EqualsSumDividedByLength)
{
    const std::vector<int64_t> idx = {0, 7, 3, 3, 2, 1};
    const std::vector<int32_t> len = {4, 2};
    Workspace ws = randomBag(8, 6, idx, len);

    SparseLengthsReduceOp mean(SlsKind::kMean, "m", "table", "", "idx",
                               "len", "ym");
    runOp(mean, ws);
    SparseLengthsReduceOp sum(SlsKind::kSum, "s", "table", "", "idx",
                              "len", "ys");
    runOp(sum, ws);

    const Tensor& m = ws.get("ym");
    const Tensor& s = ws.get("ys");
    for (int64_t b = 0; b < 2; ++b) {
        for (int64_t d = 0; d < 6; ++d) {
            EXPECT_NEAR(m.at({b, d}), s.at({b, d}) / len[b], 1e-5);
        }
    }
}

TEST(SparseLengthsMean, EmptySegmentStaysZero)
{
    Workspace ws;
    ws.set("table", Tensor::fromFloats({2, 2}, {1, 2, 3, 4}));
    ws.set("idx", Tensor::fromInt64s({1}, {1}));
    ws.set("len", Tensor::fromInt32s({2}, {0, 1}));
    SparseLengthsReduceOp mean(SlsKind::kMean, "m", "table", "", "idx",
                               "len", "y");
    runOp(mean, ws);
    EXPECT_FLOAT_EQ(ws.get("y").at({0, 0}), 0.0f);
    EXPECT_FLOAT_EQ(ws.get("y").at({1, 0}), 3.0f);
}

TEST(EmbeddingVariants, ProfilesShareGatherShape)
{
    const std::vector<int64_t> idx = {0, 1, 2, 3};
    const std::vector<int32_t> len = {4};
    Workspace ws = randomBag(128, 16, idx, len);
    ws.set("w", Tensor({4}));

    SparseLengthsReduceOp sls(SlsKind::kSum, "a", "table", "", "idx",
                              "len", "y1");
    SparseLengthsReduceOp slws(SlsKind::kWeightedSum, "b", "table", "w",
                               "idx", "len", "y2");
    SparseLengthsReduceOp mean(SlsKind::kMean, "c", "table", "", "idx",
                               "len", "y3");
    sls.inferShapes(ws);
    slws.inferShapes(ws);
    mean.inferShapes(ws);

    auto gather_stream = [](const KernelProfile& kp) {
        for (const auto& s : kp.streams) {
            if (s.pattern == AccessPattern::kRandom &&
                s.region == "table") {
                return s;
            }
        }
        return MemStream{};
    };
    const MemStream a = gather_stream(sls.profile(ws));
    const MemStream b = gather_stream(slws.profile(ws));
    const MemStream c = gather_stream(mean.profile(ws));
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.accesses, c.accesses);
    EXPECT_EQ(a.chunkBytes, b.chunkBytes);
    EXPECT_EQ(a.footprintBytes, c.footprintBytes);
    // The weighted variant does real FMA work.
    EXPECT_GT(slws.profile(ws).fmaFlops, 0u);
}

/** FNV-1a, fed field by field. */
struct Fnv1a {
    uint64_t h = 1469598103934665603ull;

    void bytes(const void* p, size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h = (h ^ c[i]) * 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

/** Every KernelProfile field: work, streams, branches, code identity. */
void
hashProfile(Fnv1a& f, const KernelProfile& kp)
{
    f.str(kp.opType);
    f.str(kp.opName);
    for (uint64_t v : {kp.fmaFlops, kp.vecElemOps, kp.scalarOps,
                       kp.simdScalableOps, kp.reloadLoadElems}) {
        f.u64(v);
    }
    f.u64(kp.streams.size());
    for (const MemStream& s : kp.streams) {
        f.str(s.region);
        f.u64(static_cast<uint64_t>(s.pattern));
        for (uint64_t v : {s.accesses, s.chunkBytes, s.footprintBytes,
                           s.strideBytes, uint64_t{s.isWrite}}) {
            f.u64(v);
        }
        f.f64(s.zipfExponent);
        f.f64(s.mlp);
    }
    f.u64(kp.branches.size());
    for (const BranchStream& b : kp.branches) {
        f.u64(b.count);
        f.f64(b.takenProbability);
        f.f64(b.randomness);
        f.u64(b.scalesWithSimd);
    }
    f.u64(kp.codeFootprintBytes);
    f.str(kp.codeRegion);
    for (uint64_t v : {kp.codeIterations, kp.serialSteps, kp.gemmWidth,
                       kp.dispatchOps, kp.dispatchCodeBytes}) {
        f.u64(v);
    }
}

/** One pooling op of the family; kind 0/1/2 = Sum/WeightedSum/Mean. */
OperatorPtr
makePoolingOp(int kind)
{
    const SlsKind k = static_cast<SlsKind>(kind);
    const char* names[] = {"sls", "slws", "slmean"};
    return makeSparseLengthsReduce(
        k, names[kind], "table", k == SlsKind::kWeightedSum ? "w" : "",
        "idx", "len", "y", 0.9);
}

TEST(EmbeddingVariants, ProfileAndOutputDigestsArePinned)
{
    // FNV-1a over the whole KernelProfile and the output bytes of each
    // pooling kind, recorded before the three ops became one. Dense
    // blob, then the same table behind a store whose cache / near /
    // far split yields all three table streams; each under both ISA
    // tiers and at intra-op widths 1 and 4 (one constant covers them
    // all: pooling is bit-identical across tiers and widths).
    constexpr int64_t kRows = 4096;
    constexpr int64_t kDim = 19;  // two AVX2 vectors plus a tail
    std::vector<int32_t> len;
    std::vector<int64_t> idx;
    std::vector<float> w;
    Rng rng(17);
    for (int b = 0; b < 24; ++b) {
        len.push_back(b % 5 == 0 ? 0 : static_cast<int32_t>(
                                           1 + rng.nextBounded(30)));
        for (int32_t p = 0; p < len.back(); ++p) {
            idx.push_back(static_cast<int64_t>(rng.nextBounded(kRows)));
            w.push_back(rng.nextFloat(-2.0f, 2.0f));
        }
    }
    Workspace dense = randomBag(kRows, kDim, idx, len, 23);
    dense.set("w", Tensor::fromFloats(
                       {static_cast<int64_t>(w.size())}, w));

    StoreConfig cfg;
    cfg.numShards = 2;
    cfg.cacheBytesPerShard = 1u << 10;
    cfg.nearTierFraction = 0.5;
    EmbeddingStore store(cfg);
    store.addTable("table", dense.get("table"));
    Workspace backed = dense;
    backed.set("table", Tensor::shapeOnly({kRows, kDim}));
    backed.attachStore(&store);

    const uint64_t pinned[2][3] = {
        // dense: Sum, WeightedSum, Mean
        {0x2b6d604c93526b8cull, 0x6ea75c1a27db39ddull,
         0xec08938df7bd9b5dull},
        // store-backed: Sum, WeightedSum, Mean
        {0x2aca495098baf27full, 0x143ee55e3d7ac806ull,
         0x352a245041035298ull},
    };
    for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
        IsaScope tier(isa);
        for (int width : {1, 4}) {
            IntraOpScope threads(width);
            for (int backing = 0; backing < 2; ++backing) {
                Workspace& ws = backing == 0 ? dense : backed;
                for (int kind = 0; kind < 3; ++kind) {
                    OperatorPtr op = makePoolingOp(kind);
                    runOp(*op, ws);
                    const KernelProfile kp = op->profile(ws);
                    Fnv1a f;
                    hashProfile(f, kp);
                    const Tensor& y = ws.get("y");
                    f.bytes(y.data<float>(), y.byteSize());
                    EXPECT_EQ(f.h, pinned[backing][kind])
                        << kp.opType << (backing ? " store" : " dense")
                        << " " << kernelIsaName(isa) << " width "
                        << width << " streams " << kp.streams.size();
                }
            }
        }
    }
}

}  // namespace
}  // namespace recstack
