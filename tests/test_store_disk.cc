/**
 * @file
 * Tests of the persistent disk far tier: the three-way differential
 * (dense vs. simulated far tier vs. disk far tier must be
 * bit-identical across all eight models, batch sizes and intra-op
 * widths on both executors), DiskTier's row addressing and reads
 * from the page-file mapping, the crash-consistency reopen path, write-through updates
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

namespace recstack {
namespace {

/** Fresh page-file directory per test, removed on teardown. */
class DiskFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // The fixture's death tests (the corrupt page-file cases) are
        // single-threaded. The fast style forks the child at the
        // assertion, where the threadsafe style of the sanitizer
        // builds would re-run the whole test in it: a second mkdtemp
        // that no TearDown removes once the child dies.
        ::testing::GTEST_FLAG(death_test_style) = "fast";
        std::string tmpl =
            (std::filesystem::temp_directory_path() /
             "recstack_disk_test.XXXXXX")
                .string();
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
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "recstack_disk_diff.XXXXXX")
                               .string();
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

// --- DiskTier reads from the mapping. ---------------------------------

TEST_F(DiskFixture, RoundTripFromMapping)
{
    // Table 0: 48-byte rows, ten to a 512-byte page with 32 bytes of
    // padding at each page's tail. Table 3: 16-byte rows 10 to 199.
    DiskTierConfig cfg;
    cfg.pageBytes = 512;
    const std::string path = dir_ + "/tier.pages";
    std::unique_ptr<DiskTier> tier;
    {
        DiskTier::Builder builder(path, cfg);
        builder.beginTable(0, 12);
        for (int64_t r = 0; r < 500; ++r) {
            std::vector<float> row(12);
            for (int64_t d = 0; d < 12; ++d) {
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
    EXPECT_EQ(tier->tableDim(0), 12);
    EXPECT_EQ(tier->tableDim(3), 4);
    EXPECT_EQ(tier->tableDim(1), 0);
    EXPECT_EQ(tier->tableRows(0), 500u);
    EXPECT_EQ(tier->tableRows(3), 190u);

    // Outside every table's [firstRow, firstRow + coldRows).
    const uint64_t kLastRow = (uint64_t{1} << 40) - 1;
    EXPECT_EQ(tier->rowAddress(uint64_t{500}), nullptr);
    EXPECT_EQ(tier->rowAddress(kLastRow), nullptr);
    EXPECT_EQ(tier->rowAddress((uint64_t{3} << 40) | 9), nullptr);
    EXPECT_EQ(tier->rowAddress((uint64_t{3} << 40) | 200), nullptr);
    EXPECT_EQ(tier->rowAddress((uint64_t{3} << 40) | kLastRow), nullptr);
    // Tables 1 and 2 lie between the present ids; 4 lies past them.
    for (uint64_t absent : {1, 2, 4}) {
        EXPECT_EQ(tier->rowAddress(absent << 40), nullptr) << absent;
        EXPECT_EQ(tier->rowAddress((absent << 40) | 10), nullptr) << absent;
    }
    std::vector<float> unused(12, 0.0f);
    EXPECT_FALSE(tier->writeRow((uint64_t{3} << 40) | 9, unused.data()));
    EXPECT_FALSE(tier->writeRow(uint64_t{2} << 40, unused.data()));

    const uint8_t* base =
        reinterpret_cast<const uint8_t*>(tier->rowAddress(0));
    ASSERT_NE(base, nullptr);
    for (int pass = 0; pass < 2; ++pass) {
        for (int64_t r = 0; r < 500; ++r) {
            const float* got = tier->rowAddress(static_cast<uint64_t>(r));
            ASSERT_NE(got, nullptr) << "row " << r;
            for (int64_t d = 0; d < 12; ++d) {
                ASSERT_EQ(got[d], expectedCell(r, d)) << "row " << r;
            }
            // Page r / 10, slot r % 10: rows skip each page's padding.
            ASSERT_EQ(reinterpret_cast<const uint8_t*>(got) - base,
                      (r / 10) * 512 + (r % 10) * 48)
                << "row " << r;
        }
        for (int64_t r = 10; r < 200; ++r) {
            const float* got = tier->rowAddress(
                (uint64_t{3} << 40) | static_cast<uint64_t>(r));
            ASSERT_NE(got, nullptr) << "row " << r;
            ASSERT_EQ(got[0], static_cast<float>(r) * 2.0f);
        }
    }

    // Header page, 50 + 6 data pages, one record page.
    const DiskTierStats stats = tier->stats();
    EXPECT_EQ(stats.numDataPages, 56u);
    EXPECT_EQ(stats.fileBytes, 58u * 512u);
    EXPECT_EQ(stats.rowWrites, 0u);
}

TEST_F(DiskFixture, AppendRowRejectsAGap)
{
    std::vector<float> row(8, 1.0f);
    EXPECT_DEATH(
        {
            DiskTier::Builder builder(dir_ + "/gap.pages");
            builder.beginTable(4, 8);
            builder.appendRow(5, row.data());
            builder.appendRow(6, row.data());
            builder.appendRow(8, row.data());
        },
        "table 4: row 8 does not follow row 6; a table's rows must be "
        "contiguous and ascending");
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
    EXPECT_EQ(reopened->tableRows(2), 400u);
    for (int64_t r = 0; r < 400; ++r) {
        const float* got = reopened->rowAddress(
            (uint64_t{2} << 40) | static_cast<uint64_t>(r));
        ASSERT_NE(got, nullptr) << "row " << r;
        if (r == 123) {
            ASSERT_EQ(got[0], -7.5f) << "write lost across reopen";
        } else {
            for (int64_t d = 0; d < 8; ++d) {
                ASSERT_EQ(got[d], expectedCell(r, d))
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
 * 2 numTables, 3 numDataPages).
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

TEST_F(DiskFixture, OldLayoutMagicIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchHeaderWord(path, 0, 0x52535431'50414745ull);  // "RST1PAGE"
    EXPECT_DEATH(DiskTier::open(path, keptConfig()),
                 "corrupt.pages' is not a recstack page file");
}

TEST_F(DiskFixture, HeaderHugeTableCountIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchHeaderWord(path, 2, uint64_t{1} << 60);
    EXPECT_DEATH(DiskTier::open(path, keptConfig()),
                 "corrupt.pages' header: numTables 1152921504606846976 "
                 "does not fit in the file");
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
 * 2 coldRows, 3 firstRow, 4 firstDataPage). The records start on the
 * first page after the data pages.
 */
void
patchRecordWord(const std::string& path, int rec, int word, uint64_t value)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    uint64_t hdr[4] = {};
    ASSERT_EQ(::pread(fd, hdr, sizeof(hdr), 0),
              static_cast<ssize_t>(sizeof(hdr)));
    const uint64_t off = (1 + hdr[3]) * hdr[1] +
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
    const float* row = tier->rowAddress((uint64_t{2} << 40) | 399);
    if (row != nullptr) {
        std::vector<float> copy(row, row + 8);
    }
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

TEST_F(DiskFixture, TableRowRangePastRowFieldIsRejected)
{
    const std::string path = buildPageFile(dir_);
    patchRecordWord(path, 0, 3, (uint64_t{1} << 40) - 399);
    EXPECT_DEATH(openAndReadLastRow(path),
                 "corrupt.pages' table 2: firstRow 1099511627377 \\+ "
                 "coldRows 400 passes the key's 40-bit row field");
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

TEST_F(DiskFixture, DiskTimingSamplesOneFetchPerStride)
{
    // Each shard times the disk fetches its diskFetches count reaches
    // at a multiple of the stride, from its first: the histogram holds
    // one sample per timed fetch, and a lone fetch still reports disk
    // time. Fetches run from this thread, so the counts repeat.
    constexpr uint64_t kStride = EmbeddingStore::kDiskTimingStride;
    const int64_t rows = 3000;
    const int64_t dim = 12;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.nearTierFraction = 0.0;  // every row is disk-resident
    cfg.cacheBytesPerShard = 0;  // so every lookup is a disk fetch

    const auto samples = [](const StoreStats& stats) {
        uint64_t n = 0;
        for (const auto& [seconds, count] : stats.diskSecondsHistogram) {
            n += count;
        }
        return n;
    };

    auto store = makeStore(rows, dim, cfg);
    std::vector<int64_t> indices(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        indices[static_cast<size_t>(i)] = i;
    }
    std::vector<float> out(static_cast<size_t>(rows * dim));
    copyRows(*store, indices.data(), 0, rows, out.data());
    StoreStats stats = store->stats();
    EXPECT_EQ(stats.total.diskFetches, static_cast<uint64_t>(rows));
    uint64_t timed = 0;
    for (const ShardCounters& c : stats.perShard) {
        EXPECT_GT(c.diskFetches, kStride);
        timed += (c.diskFetches + kStride - 1) / kStride;
    }
    EXPECT_EQ(samples(stats), timed);
    EXPECT_GT(stats.total.diskSeconds, 0.0);

    // resetStats restarts the count, so the next fetch is timed.
    store->resetStats();
    copyRows(*store, indices.data(), 0, 1, out.data());
    stats = store->stats();
    EXPECT_EQ(stats.total.diskFetches, 1u);
    EXPECT_EQ(samples(stats), 1u);
    EXPECT_GT(stats.total.diskSeconds, 0.0);

    auto lone = makeStore(rows, dim, cfg);
    copyRows(*lone, indices.data(), 0, 1, out.data());
    stats = lone->stats();
    EXPECT_EQ(stats.total.diskFetches, 1u);
    EXPECT_EQ(samples(stats), 1u);
    EXPECT_GT(stats.total.diskSeconds, 0.0);
    EXPECT_GT(stats.diskCostPercentile(0.5), 0.0);
}

TEST_F(DiskFixture, WarmedDiskRowsServeAsHitsBitExact)
{
    // warm's disk branch caches a row straight from the mapping; the
    // demand reads that follow must then be all hits, touch the disk
    // tier not at all, and return the dense payload bit for bit.
    const int64_t rows = 3000;
    const int64_t dim = 12;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.nearTierFraction = 0.25;
    cfg.cacheBytesPerShard = 64u << 10;  // the whole batch fits
    auto store = makeStore(rows, dim, cfg);
    const int64_t near_rows = store->tableInfo(0).nearRows;

    // Mostly cold rows, with repeats (warm coalesces them).
    const int64_t n = 512;
    std::vector<int64_t> indices(static_cast<size_t>(n));
    Rng rng(31);
    for (int64_t& row : indices) {
        row = static_cast<int64_t>(
            rng.nextBounded(static_cast<uint64_t>(rows)));
    }
    std::vector<int64_t> distinct = indices;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    const auto cold = std::count_if(
        distinct.begin(), distinct.end(),
        [&](int64_t r) { return r >= near_rows; });
    ASSERT_GT(cold * 2, static_cast<std::ptrdiff_t>(distinct.size()))
        << "the batch must be mostly disk rows";
    ASSERT_LT(distinct.size(), indices.size())
        << "the batch must repeat rows";

    store->warm(0, indices);
    StoreStats stats = store->stats();
    EXPECT_EQ(stats.total.prefetchedRows, distinct.size());
    EXPECT_EQ(stats.total.lookups, 0u);

    std::vector<float> out(static_cast<size_t>(n * dim));
    copyRows(*store, indices.data(), 0, n, out.data());
    stats = store->stats();
    EXPECT_EQ(stats.total.lookups, static_cast<uint64_t>(n));
    EXPECT_EQ(stats.total.hits, stats.total.lookups);
    EXPECT_EQ(stats.total.diskFetches, 0u);
    std::vector<float> dense(static_cast<size_t>(dim));
    for (int64_t p = 0; p < n; ++p) {
        const int64_t r = indices[static_cast<size_t>(p)];
        for (int64_t d = 0; d < dim; ++d) {
            dense[static_cast<size_t>(d)] = expectedCell(r, d);
        }
        ASSERT_EQ(std::memcmp(out.data() + p * dim, dense.data(),
                              static_cast<size_t>(dim) * sizeof(float)),
                  0)
            << "lookup " << p << " (row " << r << ")";
    }
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

TEST_F(DiskFixture, UpdatesNeverTearDiskRowsUnderLookaheadReads)
{
    // As above, but each read is one 64-lookup forEachRow call over
    // the rows the writer rewrites, so the lookahead resolves and
    // prefetches each row while the writer may be rewriting it. Only
    // the copy under the shard lock may read the row's bytes.
    const int64_t rows = 64;
    const int64_t dim = 64;
    StoreConfig cfg = diskStoreConfig(dir_);
    cfg.cacheBytesPerShard = 0;
    cfg.nearTierFraction = 0.0;
    auto store = makeStore(rows, dim, cfg);
    const int64_t written[] = {5, 22, 37, 60};  // one per shard
    std::vector<float> values(static_cast<size_t>(dim), 0.0f);
    for (int64_t row : written) {
        store->update(0, row, values.data());
    }
    std::vector<int64_t> indices(64);
    for (size_t i = 0; i < indices.size(); ++i) {
        indices[i] = written[i % 4];
    }

    constexpr int64_t kReads = 2000;
    constexpr int kMinWrites = 1000;
    std::atomic<int> writes{0};
    std::atomic<bool> done{false};
    std::thread writer([&] {
        std::vector<float> v(static_cast<size_t>(dim));
        for (int i = 1; !done.load(std::memory_order_acquire); ++i) {
            std::fill(v.begin(), v.end(), static_cast<float>(i));
            store->update(0, written[i % 4], v.data());
            writes.fetch_add(1, std::memory_order_release);
        }
    });
    int64_t reads = 0;
    int64_t torn = 0;
    while (reads < kReads ||
           writes.load(std::memory_order_acquire) < kMinWrites) {
        store->forEachRow(0, indices.data(), 0, 64,
                          [&](int64_t, const float* r) {
                              torn += std::any_of(r, r + dim, [&](float x) {
                                  return x != r[0];
                              });
                          });
        ++reads;
    }
    done.store(true, std::memory_order_release);
    writer.join();
    EXPECT_EQ(torn, 0) << "of " << reads * 64 << " rows read";
    EXPECT_EQ(store->stats().total.diskFetches,
              static_cast<uint64_t>(reads * 64));
}

TEST_F(DiskFixture, ConcurrentLookupsUpdatesAndPrefetch)
{
    // The TSan target: demand disk reads, write-through updates and
    // warm-ups from four threads, all at once.
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
            std::vector<int64_t> next(128);
            std::vector<float> out(static_cast<size_t>(dim));
            std::vector<float> row(static_cast<size_t>(dim), 2.5f);
            fillZipfIndices(zipf, rng, next.data(), 128);
            for (int b = 0; b < 40; ++b) {
                // Warm the next batch, then read this one: a batch
                // warmed right before its own reads would be all
                // hits, and the demand reads must reach the disk.
                indices.swap(next);
                fillZipfIndices(zipf, rng, next.data(), 128);
                store->warm(0, next);
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

// --- The lookahead: every window edge against the dense table. -------

/** Every counter of @c a and @c b but the measured disk seconds. */
void
expectSameCounters(const ShardCounters& a, const ShardCounters& b,
                   const std::string& what)
{
    EXPECT_EQ(a.lookups, b.lookups) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.nearFetches, b.nearFetches) << what;
    EXPECT_EQ(a.farFetches, b.farFetches) << what;
    EXPECT_EQ(a.diskFetches, b.diskFetches) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.bytesFromCache, b.bytesFromCache) << what;
    EXPECT_EQ(a.bytesFromNear, b.bytesFromNear) << what;
    EXPECT_EQ(a.bytesFromDisk, b.bytesFromDisk) << what;
    EXPECT_EQ(a.cacheBytesUsed, b.cacheBytesUsed) << what;
    EXPECT_EQ(a.simSeconds, b.simSeconds) << what;
}

TEST_F(DiskFixture, LookaheadWindowsMatchDenseAndSingleLookups)
{
    // Windows [lo, lo + len) with len 0 to 17 straddle the lookahead
    // of 8 on both sides; the stream repeats rows back to back and 8
    // apart, where a repeat shares the earlier lookup's ring slot.
    const int64_t rows = 64;
    const int64_t dim = 12;  // 48-byte rows: some span two lines
    Rng rng(17);
    std::vector<int64_t> stream;
    for (int i = 0; i < 40; ++i) {
        if (i >= 8 && i % 5 == 0) {
            stream.push_back(stream[static_cast<size_t>(i - 8)]);
        } else if (i % 7 == 6) {
            stream.push_back(stream.back());
        } else {
            stream.push_back(static_cast<int64_t>(
                rng.nextBounded(static_cast<uint64_t>(rows))));
        }
    }
    for (double near : {1.0, 0.5, 0.0}) {
        for (size_t cache : {size_t{0}, size_t{256}}) {
            const std::string what = "near " + std::to_string(near) +
                                     ", cache " + std::to_string(cache);
            StoreConfig cfg = diskStoreConfig(dir_);
            cfg.nearTierFraction = near;
            cfg.cacheBytesPerShard = cache;
            auto windowed = makeStore(rows, dim, cfg);
            auto single = makeStore(rows, dim, cfg);
            for (int64_t lo : {0, 1, 5, 8, 13}) {
                for (int64_t len = 0; len <= 17; ++len) {
                    const int64_t hi = lo + len;
                    std::vector<float> got(stream.size() * dim, -1.0f);
                    int64_t next = lo;
                    windowed->forEachRow(
                        0, stream.data(), lo, hi,
                        [&](int64_t p, const float* row) {
                            EXPECT_EQ(p, next++) << what;
                            std::memcpy(got.data() + p * dim, row,
                                        dim * sizeof(float));
                        });
                    EXPECT_EQ(next, hi) << what;
                    for (int64_t p = lo; p < hi; ++p) {
                        single->forEachRow(0, stream.data(), p, p + 1,
                                           [](int64_t, const float*) {});
                        const int64_t r = stream[static_cast<size_t>(p)];
                        for (int64_t d = 0; d < dim; ++d) {
                            const float want = expectedCell(r, d);
                            ASSERT_EQ(std::memcmp(&got[p * dim + d], &want,
                                                  sizeof(float)),
                                      0)
                                << what << ", window [" << lo << ", "
                                << hi << "), lookup " << p << " (row "
                                << r << ")";
                        }
                    }
                }
            }
            EXPECT_EQ(windowed->diskTier() != nullptr, near < 1.0);
            const StoreStats a = windowed->stats();
            const StoreStats b = single->stats();
            ASSERT_EQ(a.perShard.size(), b.perShard.size());
            for (size_t s = 0; s < a.perShard.size(); ++s) {
                expectSameCounters(a.perShard[s], b.perShard[s],
                                   what + ", shard " + std::to_string(s));
            }
            if (near < 1.0) {
                EXPECT_GT(a.total.diskFetches, 0u) << what;
            }
            if (near > 0.0) {
                EXPECT_GT(a.total.nearFetches, 0u) << what;
            }
            if (cache > 0) {
                EXPECT_GT(a.total.hits, 0u) << what;
                EXPECT_GT(a.total.evictions, 0u) << what;
            }
        }
    }
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
