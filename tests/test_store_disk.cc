/**
 * @file
 * Tests of the persistent disk far tier: the three-way differential
 * (dense vs. simulated far tier vs. disk far tier must be
 * bit-identical across all eight models, batch sizes and intra-op
 * widths on both executors), spline-vs-binary-search property tests
 * over adversarial key sets, DiskTier reads from the page-file
 * mapping, the crash-consistency reopen path, write-through updates
 * (torn-row free under concurrent readers), and the page-file
 * directory env knob. Runs under `ctest -L disk` and both sanitizer
 * passes (`-L sanitize`).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/compiled_net.h"
#include "graph/executor.h"
#include "models/model.h"
#include "models/store_binding.h"
#include "serve/serving_node.h"
#include "store/disk_tier.h"
#include "store/embedding_store.h"
#include "store/spline_index.h"

namespace recstack {
namespace {

/** Fresh page-file directory per test, removed on teardown. */
class DiskFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::string tmpl = "/tmp/recstack_disk_test.XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(::mkdtemp(buf.data()), nullptr);
        dir_ = buf.data();
    }
    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string dir_;
};

/** Disk-tier store config: small shards/caches, real page file. */
StoreConfig
diskStoreConfig(const std::string& dir)
{
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 16u << 10;
    cfg.nearTierFraction = 0.5;
    cfg.farTier = FarTierKind::kDisk;
    cfg.disk.dir = dir;
    cfg.disk.pageBytes = 1024;
    return cfg;
}

/** Store with one [rows, dim] table whose row r holds r + d/1000. */
std::unique_ptr<EmbeddingStore>
makeStore(int64_t rows, int64_t dim, StoreConfig cfg)
{
    auto store = std::make_unique<EmbeddingStore>(cfg);
    Tensor table({rows, dim});
    float* data = table.data<float>();
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t d = 0; d < dim; ++d) {
            data[r * dim + d] =
                static_cast<float>(r) + static_cast<float>(d) * 1e-3f;
        }
    }
    store->addTable("t0", std::move(table));
    return store;
}

/** Sum rows indices[0, n) of table 0 into out[0, dim) (the SLS shape). */
void
sumRows(EmbeddingStore& store, const int64_t* indices, int64_t n,
        float* out)
{
    const int64_t dim = store.tableInfo(0).dim;
    std::fill(out, out + dim, 0.0f);
    store.forEachRow(0, indices, 0, n, [&](int64_t, const float* row) {
        for (int64_t d = 0; d < dim; ++d) {
            out[d] += row[d];
        }
    });
}

/** Copy rows indices[lo, hi) of table 0 to out rows [lo, hi). */
void
copyRows(EmbeddingStore& store, const int64_t* indices, int64_t lo,
         int64_t hi, float* out)
{
    const int64_t dim = store.tableInfo(0).dim;
    store.forEachRow(0, indices, lo, hi, [&](int64_t p, const float* row) {
        std::memcpy(out + p * dim, row,
                    static_cast<size_t>(dim) * sizeof(float));
    });
}

float
expectedCell(int64_t r, int64_t d)
{
    return static_cast<float>(r) + static_cast<float>(d) * 1e-3f;
}

// --- The three-way differential. --------------------------------------

ModelOptions
testOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

void
expectTensorsIdentical(const std::string& blob, const std::string& what,
                       const Tensor& a, const Tensor& b)
{
    ASSERT_EQ(a.shape(), b.shape()) << "blob " << blob;
    ASSERT_EQ(a.dtype(), b.dtype()) << "blob " << blob;
    ASSERT_EQ(a.dtype(), DType::kFloat32) << "blob " << blob;
    EXPECT_EQ(std::memcmp(a.data<float>(), b.data<float>(),
                          a.byteSize()),
              0)
        << "blob '" << blob << "' diverges between dense and " << what;
}

class DiskDifferential
    : public ::testing::TestWithParam<std::tuple<ModelId, int64_t>>
{
  protected:
    void SetUp() override
    {
        std::string tmpl = "/tmp/recstack_disk_diff.XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(::mkdtemp(buf.data()), nullptr);
        dir_ = buf.data();
    }
    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string dir_;
};

TEST_P(DiskDifferential, DiskBackedOutputsBitIdenticalToDense)
{
    const ModelId id = std::get<0>(GetParam());
    const int64_t batch = std::get<1>(GetParam());
    const Model model = buildModel(id, testOptions());

    // Dense reference: privately initialized tables, interpreted,
    // serial.
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

    StoreConfig sim_cfg = diskStoreConfig(dir_);
    sim_cfg.farTier = FarTierKind::kSimulated;
    const StoreBackedModel sim_model(model, sim_cfg);
    const StoreBackedModel disk_model(model, diskStoreConfig(dir_));
    ASSERT_TRUE(disk_model.store().diskTierActive());
    auto compiled = CompiledNet::compile(model.net);

    struct Variant {
        const StoreBackedModel* m;
        const char* what;
    };
    for (const Variant& v :
         {Variant{&sim_model, "simulated-tier execution"},
          Variant{&disk_model, "disk-tier execution"}}) {
        for (int threads : {1, 8}) {
            ExecOptions opts;
            opts.mode = ExecMode::kNumericOnly;
            opts.numThreads = threads;

            // Interpreted run.
            {
                Workspace ws;
                v.m->bind(ws);
                BatchGenerator gen(model.workload, /*seed=*/1234);
                gen.materialize(ws, batch);
                Executor::run(model.net, ws, opts);
                for (const std::string& blob :
                     model.net.externalOutputs()) {
                    ASSERT_TRUE(ws.has(blob)) << blob;
                    expectTensorsIdentical(blob, v.what,
                                           ref_ws.get(blob),
                                           ws.get(blob));
                }
            }
            // Compiled run (fused schedule + arena plan).
            {
                Workspace ws;
                Arena arena;
                v.m->bind(ws);
                BatchGenerator gen(model.workload, /*seed=*/1234);
                gen.materialize(ws, batch);
                Executor::run(*compiled, ws, arena, batch, opts);
                for (const std::string& blob :
                     model.net.externalOutputs()) {
                    ASSERT_TRUE(ws.has(blob)) << blob;
                    expectTensorsIdentical(blob, v.what,
                                           ref_ws.get(blob),
                                           ws.get(blob));
                }
            }
        }
    }
    EXPECT_GT(disk_model.store().stats().total.lookups, 0u);
    if (batch >= 256) {
        // A 256-sample pooled batch reaches past the 50% near-tier
        // boundary of every model, so real page reads happened.
        EXPECT_GT(disk_model.store().stats().total.diskFetches, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DiskDifferential,
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
                c = '_';
            }
        }
        return name + "_b" + std::to_string(std::get<1>(info.param));
    });

// --- Spline vs. binary search: exactness on adversarial key sets. -----

void
checkSplineExact(const std::vector<uint64_t>& keys,
                 SplineIndexConfig cfg = {})
{
    const SplineIndex index(keys, cfg);
    for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(index.find(keys[i]), i) << "key " << keys[i];
        ASSERT_EQ(index.findBinarySearch(keys[i]), i);
    }
    // Absent probes: neighbors of every present key, plus the ends.
    for (size_t i = 0; i < keys.size(); i += 7) {
        for (uint64_t probe : {keys[i] - 1, keys[i] + 1}) {
            const size_t got = index.find(probe);
            const size_t want = index.findBinarySearch(probe);
            ASSERT_EQ(got, want) << "probe " << probe;
        }
    }
    if (!keys.empty()) {
        EXPECT_EQ(index.find(keys.front() - 1), SplineIndex::kNotFound);
        EXPECT_EQ(index.find(keys.back() + 1), SplineIndex::kNotFound);
    }
    const SplineIndexStats s = index.stats();
    EXPECT_EQ(s.numKeys, keys.size());
    // The measured interpolation error respects the configured
    // corridor (small slack for the corridor-restart boundary).
    EXPECT_LE(s.maxErrorObserved, s.maxErrorBound + 2);
}

TEST(SplineIndex, PrimeStrideKeys)
{
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 200000; ++i) {
        keys.push_back(100 + i * 10007);
    }
    checkSplineExact(keys);
}

TEST(SplineIndex, DenseRunKeys)
{
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 100000; ++i) {
        keys.push_back(1000 + i);
    }
    checkSplineExact(keys);
    // A perfectly linear set needs only one segment.
    const SplineIndex index(keys, {});
    EXPECT_EQ(index.stats().numSegments, 1u);
}

TEST(SplineIndex, SingleAndTinyKeySets)
{
    checkSplineExact({});
    checkSplineExact({42});
    checkSplineExact({42, 43});
    checkSplineExact({0, UINT64_MAX / 2, UINT64_MAX - 1});
    const SplineIndex empty({}, {});
    EXPECT_EQ(empty.find(7), SplineIndex::kNotFound);
}

TEST(SplineIndex, StoreShapedClusters)
{
    // The store's real key distribution: per-table dense row runs
    // separated by 2^40 gaps — the case a learned index must handle
    // and simple arithmetic cannot.
    std::vector<uint64_t> keys;
    for (uint64_t table = 0; table < 24; ++table) {
        const uint64_t rows = 500 + table * 377;
        for (uint64_t r = 100; r < rows; ++r) {
            keys.push_back((table << 40) | r);
        }
    }
    checkSplineExact(keys);
}

TEST(SplineIndex, RandomSparseKeys)
{
    Rng rng(99);
    std::vector<uint64_t> keys;
    uint64_t k = 0;
    for (int i = 0; i < 150000; ++i) {
        k += 1 + rng.nextBounded(1u << 20);
        keys.push_back(k);
    }
    for (size_t max_error : {4u, 32u, 256u}) {
        SplineIndexConfig cfg;
        cfg.maxError = max_error;
        checkSplineExact(keys, cfg);
    }
    // A tighter corridor buys more segments.
    SplineIndexConfig tight;
    tight.maxError = 4;
    SplineIndexConfig loose;
    loose.maxError = 256;
    EXPECT_GT(SplineIndex(keys, tight).stats().numSegments,
              SplineIndex(keys, loose).stats().numSegments);
}

// --- DiskTier reads from the mapping. ---------------------------------

TEST_F(DiskFixture, RoundTripFromMapping)
{
    DiskTierConfig cfg;
    cfg.pageBytes = 512;
    const std::string path = dir_ + "/tier.pages";
    std::unique_ptr<DiskTier> tier;
    {
        DiskTier::Builder builder(path, cfg);
        builder.beginTable(0, 8);
        for (int64_t r = 0; r < 500; ++r) {
            std::vector<float> row(8);
            for (int64_t d = 0; d < 8; ++d) {
                row[static_cast<size_t>(d)] = expectedCell(r, d);
            }
            builder.appendRow(r, row.data());
        }
        builder.beginTable(3, 4);
        for (int64_t r = 10; r < 200; ++r) {
            std::vector<float> row(4, static_cast<float>(r) * 2.0f);
            builder.appendRow(r, row.data());
        }
        tier = builder.finish();
    }
    ASSERT_NE(tier, nullptr);
    EXPECT_EQ(tier->tableDim(0), 8);
    EXPECT_EQ(tier->tableDim(3), 4);
    EXPECT_EQ(tier->tableRows(0), 500u);
    EXPECT_EQ(tier->tableRows(3), 190u);
    EXPECT_FALSE(tier->contains(uint64_t{1} << 40));  // table 1 absent
    EXPECT_FALSE(tier->contains((uint64_t{3} << 40) | 5));

    std::vector<float> got(8);
    for (int pass = 0; pass < 2; ++pass) {
        for (int64_t r = 0; r < 500; ++r) {
            ASSERT_TRUE(tier->readRow(static_cast<uint64_t>(r),
                                      got.data()));
            for (int64_t d = 0; d < 8; ++d) {
                ASSERT_EQ(got[static_cast<size_t>(d)],
                          expectedCell(r, d))
                    << "row " << r;
            }
            // Binary-search reference path returns the same bytes.
            std::vector<float> ref(8);
            ASSERT_TRUE(tier->readRowBinarySearch(
                static_cast<uint64_t>(r), ref.data()));
            ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                                  8 * sizeof(float)),
                      0);
        }
        for (int64_t r = 10; r < 200; ++r) {
            ASSERT_TRUE(tier->readRow((uint64_t{3} << 40) |
                                          static_cast<uint64_t>(r),
                                      got.data()));
            ASSERT_EQ(got[0], static_cast<float>(r) * 2.0f);
        }
    }

    const DiskTierStats stats = tier->stats();
    EXPECT_GT(stats.rowReads, 0u);
    EXPECT_GT(stats.fileBytes, 0u);
    EXPECT_EQ(stats.spline.numKeys, 690u);
}

TEST_F(DiskFixture, ReopenAfterCrashReverifies)
{
    DiskTierConfig cfg;
    cfg.pageBytes = 1024;
    cfg.keepFile = true;  // survive the first tier's destructor
    const std::string path = dir_ + "/crash.pages";
    {
        DiskTier::Builder builder(path, cfg);
        builder.beginTable(2, 8);
        for (int64_t r = 0; r < 400; ++r) {
            std::vector<float> row(8);
            for (int64_t d = 0; d < 8; ++d) {
                row[static_cast<size_t>(d)] = expectedCell(r, d);
            }
            builder.appendRow(r, row.data());
        }
        auto tier = builder.finish();
        // Mutate one row so the reopen must see the persisted write.
        std::vector<float> updated(8, -7.5f);
        ASSERT_TRUE(
            tier->writeRow((uint64_t{2} << 40) | 123, updated.data()));
    }  // tier destroyed: the "crash" boundary

    auto reopened = DiskTier::open(path, cfg);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->index().stats().numKeys, 400u);
    std::vector<float> got(8);
    for (int64_t r = 0; r < 400; ++r) {
        ASSERT_TRUE(reopened->readRow(
            (uint64_t{2} << 40) | static_cast<uint64_t>(r),
            got.data()));
        if (r == 123) {
            ASSERT_EQ(got[0], -7.5f) << "write lost across reopen";
        } else {
            for (int64_t d = 0; d < 8; ++d) {
                ASSERT_EQ(got[static_cast<size_t>(d)],
                          expectedCell(r, d))
                    << "row " << r << " corrupted across reopen";
            }
        }
    }
}

// --- Header bounds: a corrupt page file is rejected, not trusted. -----

/** Config that keeps the page file across the tier's destructor. */
DiskTierConfig
keptConfig()
{
    DiskTierConfig cfg;
    cfg.pageBytes = 1024;
    cfg.keepFile = true;
    return cfg;
}

/**
 * Build a valid page file to corrupt: tables 2, 3, ... (num_tables of
 * them), each 400 rows of dim 8; returns its path.
 */
std::string
buildPageFile(const std::string& dir, int num_tables = 1)
{
    const std::string path = dir + "/corrupt.pages";
    DiskTier::Builder builder(path, keptConfig());
    for (int t = 0; t < num_tables; ++t) {
        builder.beginTable(2 + t, 8);
        for (int64_t r = 0; r < 400; ++r) {
            std::vector<float> row(8);
            for (int64_t d = 0; d < 8; ++d) {
                row[static_cast<size_t>(d)] = expectedCell(r, d);
            }
            builder.appendRow(r, row.data());
        }
    }
    builder.finish();
    return path;
}

/**
 * Overwrite one uint64 word of the header page (0 magic, 1 pageBytes,
 * 2 numTables, 3 numKeys, 4 numDataPages).
 */
void
patchHeaderWord(const std::string& path, int word, uint64_t value)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, &value, sizeof(value),
                       static_cast<off_t>(word * sizeof(value))),
              static_cast<ssize_t>(sizeof(value)));
    ::close(fd);
}

TEST_F(DiskFixture, HeaderZeroPageSizeIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchHeaderWord(path, 1, 0);
    EXPECT_DEATH(DiskTier::open(path, keptConfig()),
                 "corrupt.pages' header: pageBytes 0 ");
}

TEST_F(DiskFixture, HeaderHugeKeyCountIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchHeaderWord(path, 3, uint64_t{1} << 60);
    EXPECT_DEATH(DiskTier::open(path, keptConfig()),
                 "corrupt.pages' header: numKeys 1152921504606846976 "
                 "does not fit");
}

TEST_F(DiskFixture, FileTruncatedAfterHeaderIsRejected)
{
    const std::string path = buildPageFile(dir_);
    ASSERT_EQ(::truncate(path.c_str(), 1024), 0);  // header page only
    EXPECT_DEATH(DiskTier::open(path, keptConfig()),
                 "corrupt.pages' header: numDataPages [0-9]+ exceeds "
                 "the file's 1 pages");
}

// --- Table records: each one is checked against the header. ----------

/**
 * Overwrite one uint64 word of table record @c rec (0 table, 1 dim,
 * 2 coldRows, 3 firstKeyIndex, 4 firstDataPage). The records start on
 * the first page after the data and key pages.
 */
void
patchRecordWord(const std::string& path, int rec, int word, uint64_t value)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    uint64_t hdr[5] = {};
    ASSERT_EQ(::pread(fd, hdr, sizeof(hdr), 0),
              static_cast<ssize_t>(sizeof(hdr)));
    const uint64_t pb = hdr[1];
    const uint64_t key_pages = (hdr[3] * sizeof(uint64_t) + pb - 1) / pb;
    const uint64_t off = (1 + hdr[4] + key_pages) * pb +
                         static_cast<uint64_t>(rec * 5 + word) *
                             sizeof(value);
    ASSERT_EQ(::pwrite(fd, &value, sizeof(value), static_cast<off_t>(off)),
              static_cast<ssize_t>(sizeof(value)));
    ::close(fd);
}

/** Reopen @c path and read the last row of table 2. */
void
openAndReadLastRow(const std::string& path)
{
    std::unique_ptr<DiskTier> tier = DiskTier::open(path, keptConfig());
    std::vector<float> row(1024);
    tier->readRow((uint64_t{2} << 40) | 399, row.data());
}

TEST_F(DiskFixture, TableZeroDimIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 1, 0);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: dim 0 does not fit a "
                 "1024-byte page");
}

TEST_F(DiskFixture, TableRowWiderThanPageIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 1, 257);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: dim 257 does not fit a "
                 "1024-byte page");
}

TEST_F(DiskFixture, TableFirstDataPageOutsideDataRegionIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 4, uint64_t{1} << 40);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: firstDataPage 1099511627776 "
                 "is outside the data pages \\[1, 14\\]");
}

TEST_F(DiskFixture, TableDataRegionOverrunIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 4, 11);  // 13 pages of rows from page 11
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: coldRows 400 from "
                 "firstDataPage 11 overrun the 13 data pages");
}

TEST_F(DiskFixture, TableKeyRangePastKeyCountIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 2, 401);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: firstKeyIndex 0 \\+ coldRows "
                 "401 exceeds numKeys 400");
}

TEST_F(DiskFixture, DuplicateTableIdIsRejected)
{
    const std::string path = buildPageFile(dir_, 2);
    patchRecordWord(path, 1, 0, 2);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: table id repeats an earlier "
                 "record");
}

// --- Store integration: serving entirely from disk. -------------------

TEST_F(DiskFixture, WholeTableServesFromDiskBitExact)
{
    const int64_t rows = 3000;
    const int64_t dim = 12;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.nearTierFraction = 0.0;  // every row is disk-resident
    cfg.cacheBytesPerShard = 4u << 10;
    auto store = makeStore(rows, dim, cfg);
    ASSERT_TRUE(store->diskTierActive());

    std::vector<int64_t> indices(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        indices[static_cast<size_t>(i)] = i;
    }
    std::vector<float> out(static_cast<size_t>(rows * dim));
    copyRows(*store, indices.data(), 0, rows, out.data());
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t d = 0; d < dim; ++d) {
            ASSERT_EQ(out[static_cast<size_t>(r * dim + d)],
                      expectedCell(r, d))
                << "row " << r;
        }
    }
    const StoreStats stats = store->stats();
    EXPECT_GT(stats.total.diskFetches, 0u);
    EXPECT_GT(stats.total.bytesFromDisk, 0u);
    EXPECT_GT(stats.total.diskSeconds, 0.0);
    EXPECT_GT(stats.diskCostPercentile(0.99), 0.0);
    EXPECT_TRUE(stats.diskTierActive);
    // The DRAM-resident footprint excludes the spilled table: near
    // heads are empty and the page file holds the payload.
    EXPECT_EQ(store->tableBytes(), 0u);
    EXPECT_GT(store->diskFileBytes(),
              static_cast<uint64_t>(rows * dim) * sizeof(float));
}

TEST_F(DiskFixture, UpdateWritesThroughToDisk)
{
    const int64_t rows = 1000;
    const int64_t dim = 8;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.cacheBytesPerShard = 0;  // no cache: reads come from the tier
    auto store = makeStore(rows, dim, cfg);

    const int64_t cold = rows - 1;  // past the 50% near boundary
    std::vector<float> updated(static_cast<size_t>(dim), 9.25f);
    store->update(0, cold, updated.data());
    std::vector<float> got(static_cast<size_t>(dim));
    copyRows(*store, &cold, 0, 1, got.data());
    EXPECT_EQ(std::memcmp(got.data(), updated.data(),
                          static_cast<size_t>(dim) * sizeof(float)),
              0)
        << "disk write-through lost";
    EXPECT_GT(store->stats().total.updates, 0u);
    EXPECT_GT(store->stats().diskTier.rowWrites, 0u);
}

TEST_F(DiskFixture, UpdatesNeverTearADiskRowUnderConcurrentReads)
{
    // Disk reads copy straight out of the page-file mapping that
    // update writes through. The row's shard lock, held by both, is
    // what keeps a reader from seeing part old and part new payload.
    const int64_t rows = 64;
    const int64_t dim = 64;  // 256-byte rows, four to a 1 KB page
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.cacheBytesPerShard = 0;  // every read reaches the mapping
    cfg.nearTierFraction = 0.0;
    auto store = makeStore(rows, dim, cfg);
    const int64_t row = 37;
    std::vector<float> values(static_cast<size_t>(dim), 0.0f);
    store->update(0, row, values.data());

    // The writer keeps rewriting the row, each time to a new uniform
    // value, until the reads stop; the reads go on until the writer
    // has made kMinWrites of its writes, so the two always overlap.
    constexpr int64_t kReads = 20000;
    constexpr int kMinWrites = 1000;
    std::atomic<int> writes{0};
    std::atomic<bool> done{false};
    std::thread writer([&] {
        std::vector<float> v(static_cast<size_t>(dim));
        for (int i = 1; !done.load(std::memory_order_acquire); ++i) {
            std::fill(v.begin(), v.end(), static_cast<float>(i));
            store->update(0, row, v.data());
            writes.fetch_add(1, std::memory_order_release);
        }
    });
    int64_t reads = 0;
    int64_t torn = 0;
    while (reads < kReads ||
           writes.load(std::memory_order_acquire) < kMinWrites) {
        store->forEachRow(0, &row, 0, 1, [&](int64_t, const float* r) {
            torn += std::any_of(r, r + dim,
                                [&](float x) { return x != r[0]; });
        });
        ++reads;
    }
    done.store(true, std::memory_order_release);
    writer.join();
    EXPECT_EQ(torn, 0) << "of " << reads << " reads";
    EXPECT_EQ(store->stats().total.diskFetches,
              static_cast<uint64_t>(reads));
}

TEST_F(DiskFixture, ConcurrentLookupsUpdatesAndPrefetch)
{
    // The TSan target: demand disk reads, write-through updates and
    // async prefetch warming, all at once.
    const int64_t rows = 2048;
    const int64_t dim = 16;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 8u << 10;
    cfg.nearTierFraction = 0.25;
    auto store = makeStore(rows, dim, cfg);

    const int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const ZipfSampler zipf(static_cast<uint64_t>(rows), 0.7);
            Rng rng(200 + static_cast<uint64_t>(t));
            std::vector<int64_t> indices(128);
            std::vector<float> out(static_cast<size_t>(dim));
            std::vector<float> row(static_cast<size_t>(dim), 2.5f);
            for (int b = 0; b < 40; ++b) {
                fillZipfIndices(zipf, rng, indices.data(), 128);
                store->prefetchAsync(0, indices);
                sumRows(*store, indices.data(), 128, out.data());
                store->update(
                    0,
                    static_cast<int64_t>(rng.nextBounded(
                        static_cast<uint64_t>(rows))),
                    row.data());
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    store->drainPrefetch();
    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.total.lookups, 4u * 40u * 128u);
    EXPECT_GT(stats.total.diskFetches, 0u);
    EXPECT_LE(store->cacheBytesUsed(), store->cacheCapacityBytes());
}

TEST_F(DiskFixture, ServingEngineRunsOnDiskBackedStore)
{
    SweepCache sweep(allPlatforms(), testOptions());
    QueryScheduler sched(&sweep, {1, 16, 256, 4096});
    ServingNode engine(&sched, ModelId::kNCF, 0);
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.05;
    cfg.execMode = ExecMode::kNumericOnly;
    cfg.storeConfig = diskStoreConfig(dir_);
    const EngineResult result = engine.run(cfg);
    EXPECT_GT(result.aggregate.samplesServed, 0u);
}

// --- Env knob. -------------------------------------------------------

TEST_F(DiskFixture, StoreDirEnvPicksPageFileDirectory)
{
    ASSERT_EQ(setenv("RECSTACK_STORE_DIR", dir_.c_str(), 1), 0);
    {
        StoreConfig cfg = diskStoreConfig("");
        ASSERT_TRUE(cfg.disk.dir.empty());
        auto store = makeStore(512, 8, cfg);
        std::vector<int64_t> idx = {400};
        std::vector<float> out(8);
        copyRows(*store, idx.data(), 0, 1, out.data());
        ASSERT_NE(store->diskTier(), nullptr);
        EXPECT_EQ(store->diskTier()->path().rfind(dir_ + "/", 0), 0u)
            << store->diskTier()->path();
    }
    ASSERT_EQ(unsetenv("RECSTACK_STORE_DIR"), 0);
}

}  // namespace
}  // namespace recstack
