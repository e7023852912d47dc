/**
 * @file
 * Differential harness for store-backed execution: routing every
 * embedding-table read of a model through the sharded EmbeddingStore
 * must produce bit-identical external outputs to the dense per-worker
 * table copies, for all eight models, at batch 1 and 256, at intra-op
 * widths 1 and 8, on both the interpreted and the compiled executor.
 * This is the numerics contract of store/embedding_store.h: cached
 * copies are verbatim row payloads and pooling preserves the dense
 * kernels' exact fp32 accumulation order.
 *
 * Runs under `ctest -L sanitize` too, so the same executions are the
 * ASan/TSan coverage of the store's locking and cache surgery.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstring>
#include <tuple>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/compiled_net.h"
#include "graph/executor.h"
#include "models/model.h"
#include "models/store_binding.h"
#include "ops/embedding.h"

namespace recstack {
namespace {

ModelOptions
testOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

/** Small shards + caches so eviction and both tiers are exercised. */
StoreConfig
testStoreConfig()
{
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 16u << 10;
    cfg.nearTierFraction = 0.5;
    return cfg;
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
        << "' diverges between dense and store-backed execution";
}

class StoreDifferential
    : public ::testing::TestWithParam<std::tuple<ModelId, int64_t>>
{
};

TEST_P(StoreDifferential, StoreBackedOutputsBitIdenticalToDense)
{
    const ModelId id = std::get<0>(GetParam());
    const int64_t batch = std::get<1>(GetParam());

    const Model model = buildModel(id, testOptions());

    // Dense reference: privately initialized tables, interpreted,
    // serial. StoreBackedModel generates parameters with the same RNG
    // stream as initParams, so the weights (and therefore outputs)
    // must match byte for byte.
    Workspace ref_ws;
    model.initParams(ref_ws);
    {
        BatchGenerator gen(model.workload, /*seed=*/1234);
        gen.materialize(ref_ws, batch);
    }
    ExecOptions ref_opts;
    ref_opts.mode = ExecMode::kNumericOnly;
    ref_opts.numThreads = 1;
    Executor::run(model.net, ref_ws, ref_opts);

    const StoreBackedModel store_model(model, testStoreConfig());
    auto compiled = CompiledNet::compile(model.net);

    for (int threads : {1, 8}) {
        ExecOptions opts;
        opts.mode = ExecMode::kNumericOnly;
        opts.numThreads = threads;

        // Interpreted store-backed run.
        {
            Workspace ws;
            store_model.bind(ws);
            BatchGenerator gen(model.workload, /*seed=*/1234);
            gen.materialize(ws, batch);
            Executor::run(model.net, ws, opts);
            for (const std::string& blob :
                 model.net.externalOutputs()) {
                ASSERT_TRUE(ws.has(blob)) << blob;
                expectTensorsIdentical(blob, ref_ws.get(blob),
                                       ws.get(blob));
            }
        }

        // Compiled store-backed run (fused schedule + arena plan).
        {
            Workspace ws;
            Arena arena;
            store_model.bind(ws);
            BatchGenerator gen(model.workload, /*seed=*/1234);
            gen.materialize(ws, batch);
            Executor::run(*compiled, ws, arena, batch, opts);
            for (const std::string& blob :
                 model.net.externalOutputs()) {
                ASSERT_TRUE(ws.has(blob)) << blob;
                expectTensorsIdentical(blob, ref_ws.get(blob),
                                       ws.get(blob));
            }
        }
    }

    // The runs above actually exercised the store path (unless the
    // model has no embedding tables, which none of the eight does).
    EXPECT_GT(store_model.store().stats().total.lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, StoreDifferential,
    ::testing::Combine(::testing::Values(ModelId::kNCF, ModelId::kRM1,
                                         ModelId::kRM2, ModelId::kRM3,
                                         ModelId::kWnD, ModelId::kMTWnD,
                                         ModelId::kDIN, ModelId::kDIEN),
                       ::testing::Values(int64_t{1}, int64_t{256})),
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

/** Position-weighted pooling (SLWS) through the store, bit-exact. */
TEST(StoreDifferentialVariants, PositionWeightedPooling)
{
    ModelOptions opts = testOptions();
    opts.positionWeighted = true;
    const Model model = buildModel(ModelId::kRM2, opts);

    Workspace ref_ws;
    model.initParams(ref_ws);
    BatchGenerator ref_gen(model.workload, /*seed=*/1234);
    ref_gen.materialize(ref_ws, 64);
    Executor::run(model.net, ref_ws, ExecMode::kNumericOnly);

    const StoreBackedModel store_model(model, testStoreConfig());
    Workspace ws;
    store_model.bind(ws);
    BatchGenerator gen(model.workload, /*seed=*/1234);
    gen.materialize(ws, 64);
    Executor::run(model.net, ws, ExecMode::kNumericOnly);
    for (const std::string& blob : model.net.externalOutputs()) {
        expectTensorsIdentical(blob, ref_ws.get(blob), ws.get(blob));
    }
}

/**
 * Mean pooling (SLMean) through the store, bit-exact at widths 1 and
 * 4: the store pools the sums, then the op scales each non-empty row
 * exactly as the dense loop does. No model uses the mean kind, so the
 * op runs directly; segments 0 and every seventh one are empty.
 */
TEST(StoreDifferentialVariants, MeanPooling)
{
    constexpr int64_t kRows = 512;
    constexpr int64_t kDim = 13;
    Rng rng(7);
    Tensor table({kRows, kDim});
    for (int64_t i = 0; i < table.numel(); ++i) {
        table.data<float>()[i] = rng.nextFloat(-1.0f, 1.0f);
    }
    std::vector<int32_t> len;
    std::vector<int64_t> idx;
    for (int b = 0; b < 64; ++b) {
        len.push_back(b % 7 == 0 ? 0 : static_cast<int32_t>(
                                           1 + rng.nextBounded(20)));
        for (int32_t p = 0; p < len.back(); ++p) {
            idx.push_back(static_cast<int64_t>(rng.nextBounded(kRows)));
        }
    }

    Workspace dense;
    Workspace backed;
    for (Workspace* ws : {&dense, &backed}) {
        ws->set("idx", Tensor::fromInt64s(
                           {static_cast<int64_t>(idx.size())}, idx));
        ws->set("len", Tensor::fromInt32s(
                           {static_cast<int64_t>(len.size())}, len));
    }
    dense.set("table", table);
    EmbeddingStore store(testStoreConfig());
    store.addTable("table", std::move(table));
    backed.set("table", Tensor::shapeOnly({kRows, kDim}));
    backed.attachStore(&store);

    for (int width : {1, 4}) {
        IntraOpScope threads(width);
        for (Workspace* ws : {&dense, &backed}) {
            OperatorPtr op = makeSparseLengthsReduce(
                SlsKind::kMean, "m", "table", "", "idx", "len", "y");
            op->inferShapes(*ws);
            op->run(*ws);
        }
        expectTensorsIdentical("y", dense.get("y"), backed.get("y"));
    }
    EXPECT_GT(store.stats().total.lookups, 0u);
}

/** FNV-1a over the 8 bytes of each mixed word, plus raw byte runs. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;
    void bytes(const void* p, size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h = (h ^ c[i]) * 1099511628211ull;
        }
    }
    void mix(uint64_t v) { bytes(&v, sizeof(v)); }
    void mix(double v) { mix(std::bit_cast<uint64_t>(v)); }
    /** Every field except the wall-clock diskSeconds. */
    void mix(const ShardCounters& c)
    {
        for (uint64_t v :
             {c.lookups, c.hits, c.nearFetches, c.farFetches,
              c.diskFetches, c.evictions, c.updates, c.prefetchedRows,
              c.promotedRows, c.demotedRows, c.bytesFromCache,
              c.bytesFromNear, c.bytesFromFar, c.bytesFromDisk,
              c.cacheBytesUsed}) {
            mix(v);
        }
        mix(c.simSeconds);
    }
};

/**
 * FNV-1a over the store's accounting (every ShardCounters field but
 * the measured diskSeconds, per shard and in total, plus the modeled
 * cost histogram) and over the outputs of store-backed SLS, SLWS,
 * SLMean and Gather, recorded before the store's pooling loop moved
 * into the op. One table whose cache / near / far split serves every
 * tier, on the simulated and on the disk far tier, serially under
 * both ISA tiers: counter interleaving is only deterministic at
 * width 1.
 */
TEST(StoreDifferentialVariants, AccountingDigestsArePinned)
{
    constexpr int64_t kRows = 4096;
    constexpr int64_t kDim = 19;  // two AVX2 vectors plus a tail
    Rng rng(29);
    Tensor table({kRows, kDim});
    for (int64_t i = 0; i < table.numel(); ++i) {
        table.data<float>()[i] = rng.nextFloat(-1.0f, 1.0f);
    }
    const ZipfSampler zipf(static_cast<uint64_t>(kRows), 0.8);
    std::vector<int32_t> len;
    std::vector<int64_t> idx;
    std::vector<float> w;
    for (int b = 0; b < 48; ++b) {
        len.push_back(b % 9 == 0 ? 0 : static_cast<int32_t>(
                                           1 + rng.nextBounded(40)));
        for (int32_t p = 0; p < len.back(); ++p) {
            idx.push_back(static_cast<int64_t>(zipf.sample(rng)));
            w.push_back(rng.nextFloat(-2.0f, 2.0f));
        }
    }
    const auto n_idx = static_cast<int64_t>(idx.size());

    // {accounting, outputs} per far tier: simulated, disk.
    const uint64_t pinned[2][2] = {
        {0x87890b987ab59d04ull, 0x79df59529e618b90ull},
        {0x32c0a7ad4a2f1248ull, 0x79df59529e618b90ull},
    };
    for (FarTierKind far : {FarTierKind::kSimulated, FarTierKind::kDisk}) {
        for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
            IsaScope tier(isa);
            IntraOpScope threads(1);
            StoreConfig cfg;
            cfg.numShards = 3;
            cfg.cacheBytesPerShard = 2u << 10;
            cfg.nearTierFraction = 0.4;
            cfg.farTier = far;
            cfg.disk.pageBytes = 1024;
            EmbeddingStore store(cfg);
            store.addTable("table", table);
            Workspace ws;
            ws.set("table", Tensor::shapeOnly({kRows, kDim}));
            ws.set("idx", Tensor::fromInt64s({n_idx}, idx));
            ws.set("len", Tensor::fromInt32s(
                              {static_cast<int64_t>(len.size())}, len));
            ws.set("w", Tensor::fromFloats({n_idx}, w));
            ws.attachStore(&store);
            ASSERT_EQ(store.diskTierActive(), far == FarTierKind::kDisk);

            Fnv outputs;
            for (SlsKind kind : {SlsKind::kSum, SlsKind::kWeightedSum,
                                 SlsKind::kMean}) {
                OperatorPtr op = makeSparseLengthsReduce(
                    kind, "pool", "table",
                    kind == SlsKind::kWeightedSum ? "w" : "", "idx",
                    "len", "y");
                op->inferShapes(ws);
                op->run(ws);
                const Tensor& y = ws.get("y");
                outputs.bytes(y.data<float>(), y.byteSize());
            }
            // Write-through on a near and a far row, one of them hot.
            for (int64_t row : {int64_t{0}, kRows - 1}) {
                store.update(0, row, w.data());
            }
            OperatorPtr gather = makeGather("gather", "table", "idx", "g");
            gather->inferShapes(ws);
            gather->run(ws);
            const Tensor& g = ws.get("g");
            outputs.bytes(g.data<float>(), g.byteSize());

            const StoreStats stats = store.stats();
            Fnv accounting;
            accounting.mix(static_cast<uint64_t>(stats.perShard.size()));
            for (const ShardCounters& c : stats.perShard) {
                accounting.mix(c);
            }
            accounting.mix(stats.total);
            accounting.mix(static_cast<uint64_t>(stats.costHistogram.size()));
            for (const auto& [cost, count] : stats.costHistogram) {
                accounting.mix(cost);
                accounting.mix(count);
            }
            const int t = far == FarTierKind::kDisk ? 1 : 0;
            // Every tier served: cache, near, and the far kind.
            EXPECT_GT(stats.total.hits, 0u);
            EXPECT_GT(stats.total.nearFetches, 0u);
            EXPECT_GT(t == 1 ? stats.total.diskFetches
                             : stats.total.farFetches,
                      0u);
            EXPECT_EQ(accounting.h, pinned[t][0])
                << farTierKindName(far) << " " << kernelIsaName(isa)
                << std::hex << " accounting 0x" << accounting.h;
            EXPECT_EQ(outputs.h, pinned[t][1])
                << farTierKindName(far) << " " << kernelIsaName(isa)
                << std::hex << " outputs 0x" << outputs.h;
        }
    }
}

/**
 * A Zipf stream through a disk far tier with a small row cache, row
 * writes interleaved to cached and uncached disk rows. Every row the
 * store serves must equal a dense copy that took the same writes.
 */
TEST(StoreDifferentialVariants, DiskUpdatesMatchDense)
{
    constexpr int64_t kRows = 4096;
    constexpr int64_t kDim = 19;
    constexpr int64_t kBatch = 256;
    constexpr size_t kRowBytes = kDim * sizeof(float);
    Rng rng(31);
    Tensor dense({kRows, kDim});
    for (int64_t i = 0; i < dense.numel(); ++i) {
        dense.data<float>()[i] = rng.nextFloat(-1.0f, 1.0f);
    }
    StoreConfig cfg;
    cfg.numShards = 2;
    cfg.cacheBytesPerShard = 1u << 10;
    cfg.nearTierFraction = 0.1;
    cfg.farTier = FarTierKind::kDisk;
    cfg.disk.pageBytes = 1024;
    EmbeddingStore store(cfg);
    store.addTable("table", dense);
    const int64_t near_rows = store.tableInfo(0).nearRows;

    const auto expectRowsMatch = [&](const int64_t* rows, int64_t n) {
        int64_t mismatches = 0;
        store.forEachRow(0, rows, 0, n, [&](int64_t p, const float* row) {
            mismatches += std::memcmp(row,
                                      dense.data<float>() + rows[p] * kDim,
                                      kRowBytes) != 0;
        });
        EXPECT_EQ(mismatches, 0);
    };
    const ZipfSampler zipf(static_cast<uint64_t>(kRows), 0.9);
    std::vector<int64_t> indices(kBatch);
    std::vector<float> values(kDim);
    int writes_to_cached = 0;
    int writes_to_uncached = 0;
    for (int b = 0; b < 40; ++b) {
        fillZipfIndices(zipf, rng, indices.data(), kBatch);
        expectRowsMatch(indices.data(), kBatch);
        for (int u = 0; u < 8; ++u) {
            // Even writes hit a row of this batch (often still
            // cached), odd writes a uniform disk row (rarely cached).
            const int64_t row =
                u % 2 == 0
                    ? indices[rng.nextBounded(kBatch)]
                    : near_rows + static_cast<int64_t>(rng.nextBounded(
                                      kRows - near_rows));
            for (float& v : values) {
                v = rng.nextFloat(-1.0f, 1.0f);
            }
            store.update(0, row, values.data());
            std::memcpy(dense.data<float>() + row * kDim, values.data(),
                        kRowBytes);
            // Which tier serves the row right after the write: a hit
            // means the write refreshed a cached copy, a disk fetch
            // that it reached only the page file.
            const ShardCounters before = store.stats().total;
            expectRowsMatch(&row, 1);
            const ShardCounters after = store.stats().total;
            if (row >= near_rows) {
                writes_to_cached += after.hits > before.hits;
                writes_to_uncached += after.diskFetches > before.diskFetches;
            }
        }
    }
    std::vector<int64_t> all(kRows);
    for (int64_t r = 0; r < kRows; ++r) {
        all[static_cast<size_t>(r)] = r;
    }
    expectRowsMatch(all.data(), kRows);

    EXPECT_GT(writes_to_cached, 0) << "no write reached a cached disk row";
    EXPECT_GT(writes_to_uncached, 0) << "no write reached an uncached disk row";
}

/** A locally materialized table blob overrides the attached store. */
TEST(StoreDifferentialVariants, MaterializedBlobWinsOverStore)
{
    const Model model = buildModel(ModelId::kRM1, testOptions());
    const StoreBackedModel store_model(model, testStoreConfig());

    Workspace ws;
    store_model.bind(ws);
    // Re-materialize every parameter locally: identical values, but
    // now the table blobs are dense in the workspace, so the executor
    // must read them directly and never touch the store.
    model.initParams(ws);
    BatchGenerator gen(model.workload, /*seed=*/1234);
    gen.materialize(ws, 32);
    Executor::run(model.net, ws, ExecMode::kNumericOnly);
    EXPECT_EQ(store_model.store().stats().total.lookups, 0u);
}

}  // namespace
}  // namespace recstack
