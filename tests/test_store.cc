/**
 * @file
 * Unit tests of the sharded embedding parameter store: cache-policy
 * math against the analytical Zipf expectation, adversarial scan
 * behaviour, update/eviction liveness, shard accounting, the tier
 * cost model, and the synchronous warm-up. The concurrency cases run
 * under -DRECSTACK_SANITIZE=thread via `ctest -L sanitize`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "store/embedding_store.h"
#include "store/row_cache.h"

namespace recstack {
namespace {

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

/** Drive `batches` demand batches of Zipf(alpha) pooled lookups. */
void
drive(EmbeddingStore& store, int64_t rows, int64_t dim, double alpha,
      int batches, int64_t per_batch, uint64_t seed = 7)
{
    const ZipfSampler zipf(static_cast<uint64_t>(rows), alpha);
    Rng rng(seed);
    std::vector<int64_t> indices(static_cast<size_t>(per_batch));
    std::vector<float> out(static_cast<size_t>(dim));
    for (int b = 0; b < batches; ++b) {
        fillZipfIndices(zipf, rng, indices.data(), per_batch);
        sumRows(store, indices.data(), per_batch, out.data());
    }
}

// --- Cache-policy math vs. the analytical expectation. ----------------

double
measuredHitRate(CachePolicy policy, double alpha, int64_t cache_rows)
{
    const int64_t rows = 50000;
    const int64_t dim = 16;
    StoreConfig cfg;
    cfg.numShards = 1;
    cfg.policy = policy;
    cfg.cacheBytesPerShard =
        static_cast<size_t>(cache_rows * dim * 4);
    auto store = makeStore(rows, dim, cfg);
    // Warm to steady state, then measure demand traffic only.
    drive(*store, rows, dim, alpha, 6, 20000, /*seed=*/7);
    store->resetStats();
    drive(*store, rows, dim, alpha, 6, 20000, /*seed=*/8);
    return store->stats().hitRate();
}

TEST(StoreCacheMath, LruHitRateMatchesZipfExpectation)
{
    const int64_t rows = 50000;
    const int64_t dim = 16;
    const int64_t cache_rows = 5000;
    StoreConfig cfg;
    cfg.numShards = 1;
    cfg.cacheBytesPerShard =
        static_cast<size_t>(cache_rows * dim * 4);
    auto store = makeStore(rows, dim, cfg);
    double prev = -1.0;
    for (double alpha : {0.6, 0.9, 1.2}) {
        const double expected = store->expectedHitRate(0, alpha);
        const double measured =
            measuredHitRate(CachePolicy::kLRU, alpha, cache_rows);
        // expectedHitRate models the k hottest rows resident — an
        // upper bound LRU approaches from below; the gap is boundary
        // churn and shrinks as the skew concentrates the working set.
        EXPECT_LE(measured, expected + 0.02) << "alpha " << alpha;
        EXPECT_GE(measured, expected - 0.18) << "alpha " << alpha;
        EXPECT_GT(measured, prev) << "alpha " << alpha;
        prev = measured;
    }
    // At strong skew the bound is tight.
    EXPECT_NEAR(measuredHitRate(CachePolicy::kLRU, 1.2, cache_rows),
                store->expectedHitRate(0, 1.2), 0.05);
}

TEST(StoreCacheMath, ClockTracksLruHitRate)
{
    for (double alpha : {0.6, 0.9}) {
        const double lru =
            measuredHitRate(CachePolicy::kLRU, alpha, 5000);
        const double clock =
            measuredHitRate(CachePolicy::kClock, alpha, 5000);
        EXPECT_NEAR(clock, lru, 0.10) << "alpha " << alpha;
    }
}

TEST(StoreCacheMath, SequentialScanDefeatsBothPolicies)
{
    // The adversarial pattern for recency policies: a scan over a
    // working set larger than the cache evicts every row before its
    // reuse, so after the compulsory pass the hit rate stays ~0.
    const int64_t rows = 20000;
    const int64_t dim = 16;
    for (CachePolicy policy :
         {CachePolicy::kLRU, CachePolicy::kClock}) {
        StoreConfig cfg;
        cfg.numShards = 1;
        cfg.policy = policy;
        cfg.cacheBytesPerShard = 1000 * dim * 4;  // 5% of the table
        auto store = makeStore(rows, dim, cfg);
        std::vector<int64_t> indices(static_cast<size_t>(rows));
        for (int64_t i = 0; i < rows; ++i) {
            indices[static_cast<size_t>(i)] = i;
        }
        std::vector<float> out(static_cast<size_t>(dim));
        for (int pass = 0; pass < 3; ++pass) {
            sumRows(*store, indices.data(), rows, out.data());
        }
        const StoreStats stats = store->stats();
        EXPECT_EQ(stats.total.hits, 0u)
            << cachePolicyName(policy);
        EXPECT_GT(stats.total.evictions, 0u);
    }
}

TEST(StoreCacheMath, ExpectedHitRateMonotoneInCapacityAndSkew)
{
    const int64_t rows = 50000;
    const int64_t dim = 16;
    double prev = -1.0;
    for (size_t cache_kb : {16u, 64u, 256u, 1024u}) {
        StoreConfig cfg;
        cfg.numShards = 4;
        cfg.cacheBytesPerShard = cache_kb << 10;
        auto store = makeStore(rows, dim, cfg);
        const double h = store->expectedHitRate(0, 0.9);
        EXPECT_GE(h, prev) << cache_kb << " KB";
        prev = h;
    }
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 64u << 10;
    auto store = makeStore(rows, dim, cfg);
    prev = -1.0;
    for (double alpha : {0.0, 0.4, 0.8, 1.2}) {
        const double h = store->expectedHitRate(0, alpha);
        EXPECT_GE(h, prev) << "alpha " << alpha;
        prev = h;
    }
}

TEST(StoreCacheMath, ZipfCdfSanity)
{
    const uint64_t n = 10000;
    for (double alpha : {0.0, 0.75, 1.2}) {
        const ZipfSampler zipf(n, alpha);
        EXPECT_DOUBLE_EQ(zipf.cdf(0), 0.0);
        EXPECT_DOUBLE_EQ(zipf.cdf(n), 1.0);
        double prev = 0.0;
        for (uint64_t k = 1; k <= n; k += 500) {
            const double c = zipf.cdf(k);
            EXPECT_GE(c, prev);
            EXPECT_LE(c, 1.0);
            prev = c;
        }
    }
    const ZipfSampler uniform(n, 0.0);
    EXPECT_DOUBLE_EQ(uniform.cdf(n / 4), 0.25);
    // Skewed mass concentrates in the head: the top 1% of rows carry
    // far more than 1% of the probability.
    const ZipfSampler skewed(n, 1.0);
    EXPECT_GT(skewed.cdf(n / 100), 0.20);
}

// --- Liveness: updates are never shadowed by stale cache copies. ------

TEST(StoreLiveness, NoStaleRowAfterUpdate)
{
    const int64_t rows = 1000;
    const int64_t dim = 8;
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 64u << 10;
    auto store = makeStore(rows, dim, cfg);

    // Shadow dense copy updated in lockstep with store.update().
    std::vector<float> shadow(static_cast<size_t>(rows * dim));
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t d = 0; d < dim; ++d) {
            shadow[static_cast<size_t>(r * dim + d)] =
                static_cast<float>(r) + static_cast<float>(d) * 1e-3f;
        }
    }

    Rng rng(17);
    std::vector<float> row(static_cast<size_t>(dim));
    std::vector<float> got(static_cast<size_t>(dim));
    for (int step = 0; step < 4000; ++step) {
        const int64_t r = static_cast<int64_t>(
            rng.nextBounded(static_cast<uint64_t>(rows)));
        if (rng.nextBool(0.3)) {
            for (int64_t d = 0; d < dim; ++d) {
                row[static_cast<size_t>(d)] =
                    rng.nextFloat(-2.0f, 2.0f);
            }
            store->update(0, r, row.data());
            std::memcpy(&shadow[static_cast<size_t>(r * dim)],
                        row.data(), sizeof(float) * row.size());
        } else {
            copyRows(*store, &r, 0, 1, got.data());
            ASSERT_EQ(std::memcmp(
                          got.data(),
                          &shadow[static_cast<size_t>(r * dim)],
                          sizeof(float) * got.size()),
                      0)
                << "stale row " << r << " at step " << step;
        }
    }
    EXPECT_GT(store->stats().total.updates, 0u);
    // The cache actually served reads, so coherence was exercised on
    // the cached path, not just the backing rows.
    EXPECT_GT(store->stats().total.hits, 0u);
}

// --- Shard accounting and the tier cost model. ------------------------

TEST(StoreAccounting, PerShardCountersPartitionTotals)
{
    const int64_t rows = 8192;
    const int64_t dim = 16;
    StoreConfig cfg;
    cfg.numShards = 8;
    cfg.cacheBytesPerShard = 32u << 10;
    auto store = makeStore(rows, dim, cfg);
    drive(*store, rows, dim, 0.8, 4, 4096);

    const StoreStats stats = store->stats();
    ASSERT_EQ(stats.perShard.size(), 8u);
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t near = 0;
    uint64_t far = 0;
    int used = 0;
    for (const ShardCounters& c : stats.perShard) {
        lookups += c.lookups;
        hits += c.hits;
        near += c.nearFetches;
        far += c.farFetches;
        used += c.lookups > 0 ? 1 : 0;
    }
    EXPECT_EQ(lookups, stats.total.lookups);
    EXPECT_EQ(hits, stats.total.hits);
    EXPECT_EQ(near, stats.total.nearFetches);
    EXPECT_EQ(far, stats.total.farFetches);
    EXPECT_EQ(stats.total.lookups, 4u * 4096u);
    EXPECT_EQ(stats.total.hits + stats.total.nearFetches +
                  stats.total.farFetches,
              stats.total.lookups);
    EXPECT_GT(used, 1) << "row partition never left shard 0";
}

TEST(StoreAccounting, FarTierCostsMoreThanNear)
{
    const int64_t rows = 4096;
    const int64_t dim = 16;
    StoreConfig near_cfg;
    near_cfg.numShards = 1;
    near_cfg.cacheBytesPerShard = 0;  // every lookup hits the tier
    near_cfg.nearTierFraction = 1.0;
    StoreConfig far_cfg = near_cfg;
    far_cfg.nearTierFraction = 0.0;

    auto near_store = makeStore(rows, dim, near_cfg);
    auto far_store = makeStore(rows, dim, far_cfg);
    drive(*near_store, rows, dim, 0.8, 2, 2048);
    drive(*far_store, rows, dim, 0.8, 2, 2048);

    const StoreStats near_stats = near_store->stats();
    const StoreStats far_stats = far_store->stats();
    EXPECT_EQ(near_stats.total.farFetches, 0u);
    EXPECT_EQ(far_stats.total.nearFetches, 0u);
    EXPECT_GT(far_stats.total.farFetches, 0u);
    EXPECT_GT(far_stats.total.simSeconds,
              near_stats.total.simSeconds * 2.0);
    EXPECT_GT(far_stats.costPercentile(0.99),
              near_stats.costPercentile(0.99));
}

TEST(StoreAccounting, FarTierFractionShrinksWithNearResidency)
{
    const int64_t rows = 50000;
    StoreConfig cfg;
    cfg.numShards = 1;
    cfg.cacheBytesPerShard = 0;
    cfg.nearTierFraction = 0.25;
    auto quarter = makeStore(rows, 16, cfg);
    cfg.nearTierFraction = 0.75;
    auto three_quarters = makeStore(rows, 16, cfg);
    EXPECT_GT(quarter->farTierFraction(0, 0.9),
              three_quarters->farTierFraction(0, 0.9));
    cfg.nearTierFraction = 1.0;
    auto all_near = makeStore(rows, 16, cfg);
    EXPECT_DOUBLE_EQ(all_near->farTierFraction(0, 0.9), 0.0);
}

// --- Documented edge cases (pinned; see embedding_store.h). -----------

TEST(StoreEdgeCases, EmptyHistogramPercentileIsZero)
{
    // No demand lookups yet: every percentile of the empty cost
    // histogram is the documented 0.0, not a crash or NaN.
    auto store = makeStore(64, 8, StoreConfig{});
    const StoreStats stats = store->stats();
    EXPECT_TRUE(stats.costHistogram.empty());
    for (double p : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(stats.costPercentile(p), 0.0) << "p " << p;
        EXPECT_EQ(stats.diskCostPercentile(p), 0.0) << "p " << p;
    }
}

TEST(StoreEdgeCases, ZeroLookupHitRateIsZero)
{
    auto store = makeStore(64, 8, StoreConfig{});
    const StoreStats stats = store->stats();
    ASSERT_EQ(stats.total.lookups, 0u);
    EXPECT_EQ(stats.total.hitRate(), 0.0);
    EXPECT_EQ(stats.hitRate(), 0.0);
    ShardCounters zero;
    EXPECT_EQ(zero.hitRate(), 0.0);
}

TEST(StoreDeathTest, UpdateRejectsTableIdOutOfRange)
{
    // The id is checked before the store indexes its table list, so a
    // bad id dies with the diagnostic rather than reading past it.
    auto store = makeStore(64, 8, StoreConfig{});
    std::vector<float> row(8, 1.0f);
    EXPECT_DEATH(store->update(-1, 0, row.data()),
                 "table id -1 out of range");
    EXPECT_DEATH(store->update(1, 0, row.data()),
                 "table id 1 out of range");
}

// --- Warm-up. ----------------------------------------------------------

TEST(StorePrefetch, WarmCoalescesDuplicateIndices)
{
    const int64_t dim = 8;
    StoreConfig cfg;
    cfg.numShards = 2;
    cfg.cacheBytesPerShard = 64u << 10;
    auto store = makeStore(256, dim, cfg);

    // A heavily repeated index stream (the shape of a Zipf head)
    // must warm each distinct row exactly once per call.
    std::vector<int64_t> indices = {5, 5, 5, 7, 9, 7, 5, 9, 11};
    store->warm(0, indices);
    EXPECT_EQ(store->stats().total.prefetchedRows, 4u);
}

TEST(StorePrefetch, WarmTurnsDemandMissesIntoHits)
{
    const int64_t rows = 8192;
    const int64_t dim = 16;
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = 1u << 20;  // batch fits entirely
    auto store = makeStore(rows, dim, cfg);

    const ZipfSampler zipf(static_cast<uint64_t>(rows), 0.9);
    Rng rng(5);
    std::vector<int64_t> indices(2048);
    fillZipfIndices(zipf, rng, indices.data(),
                    static_cast<int64_t>(indices.size()));
    store->warm(0, indices);

    // The warm-up filled the cache without charging demand counters.
    StoreStats stats = store->stats();
    EXPECT_EQ(stats.total.lookups, 0u);
    EXPECT_GT(stats.total.prefetchedRows, 0u);

    std::vector<float> out(static_cast<size_t>(dim));
    sumRows(*store, indices.data(), static_cast<int64_t>(indices.size()),
            out.data());
    stats = store->stats();
    EXPECT_EQ(stats.total.lookups, indices.size());
    EXPECT_EQ(stats.total.hits, indices.size())
        << "a prefetched batch must be all demand hits";
}

// --- RowCache on its own. ----------------------------------------------

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
};

/** A (table, row) cache key the way the store builds them. */
uint64_t
cacheKey(uint64_t table, uint64_t row)
{
    return (table << 40) | row;
}

/**
 * FNV-1a over a seeded find/insert/refresh/erase sequence through
 * RowCache under both policies: every call's hit or miss, the payload
 * bytes a hit returns, the eviction count, bytesUsed() and entries()
 * after the call. Rows of 19 and 32 floats share capacities that force
 * evictions; the sequence also inserts rows larger than the capacity
 * (bypass), refreshes with a mismatched size (which erases), and runs
 * a capacity-0 cache. Recorded on the std::list + std::unordered_map
 * cache: any layout must keep exactly this replacement order.
 */
TEST(RowCache, ReplacementDigestsArePinned)
{
    constexpr size_t kCapacities[3] = {1000, 4000, 0};
    // [policy: lru, clock][capacity]
    const uint64_t pinned[2][3] = {
        {0xac601c4c82abd93dull, 0x775b1c7703bb1173ull,
         0x14b41cd4438b57f8ull},
        {0xb01a1ec00b03dcdeull, 0x3c80c322174d294cull,
         0x14b41cd4438b57f8ull},
    };
    for (CachePolicy policy : {CachePolicy::kLRU, CachePolicy::kClock}) {
        for (int ci = 0; ci < 3; ++ci) {
            const size_t capacity = kCapacities[ci];
            RowCache cache(policy, capacity);
            const ZipfSampler zipf(96, 0.9);
            Rng rng(41);
            std::vector<float> row(300);
            constexpr size_t kOversizeBytes = 300 * sizeof(float);
            uint64_t evictions = 0;
            uint64_t hits = 0;
            Fnv f;
            for (int i = 0; i < 6000; ++i) {
                const uint64_t r = zipf.sample(rng);
                const uint64_t key = cacheKey(r % 3, r * 7919);
                const size_t bytes = (r % 3 == 0 ? 32 : 19) * sizeof(float);
                for (float& v : row) {
                    v = rng.nextFloat(-1.0f, 1.0f);
                }
                const uint64_t op = rng.nextBounded(20);
                f.mix(op);
                if (op < 9) {
                    const float* p = cache.find(key);
                    f.mix(uint64_t{p != nullptr});
                    if (p != nullptr) {
                        ++hits;
                        f.bytes(p, bytes);
                    }
                } else if (op < 14) {
                    cache.insert(key, row.data(), bytes, &evictions);
                } else if (op < 16) {
                    f.mix(uint64_t{cache.refresh(key, row.data(), bytes)});
                } else if (op == 16) {
                    f.mix(uint64_t{cache.refresh(key, row.data(),
                                                 bytes + sizeof(float))});
                } else if (op < 19) {
                    cache.erase(key);
                } else {
                    cache.insert(key, row.data(), kOversizeBytes,
                                 &evictions);
                }
                f.mix(evictions);
                f.mix(static_cast<uint64_t>(cache.bytesUsed()));
                f.mix(static_cast<uint64_t>(cache.entries()));
            }
            if (capacity == 0) {
                EXPECT_EQ(hits, 0u);
                EXPECT_EQ(evictions, 0u);
                EXPECT_EQ(cache.entries(), 0u);
            } else {
                EXPECT_GT(hits, 0u);
                EXPECT_GT(evictions, 0u);
                EXPECT_LE(cache.bytesUsed(), capacity);
            }
            const int p = policy == CachePolicy::kLRU ? 0 : 1;
            EXPECT_EQ(f.h, pinned[p][ci])
                << cachePolicyName(policy) << " capacity " << capacity
                << std::hex << " digest 0x" << f.h;
        }
    }
}

/**
 * Index and slot-pool edge cases, checked against a model of which
 * rows were written: every resident key returns its last payload,
 * entries() counts them and bytesUsed() sums their sizes after every
 * call. A dense key set at the index's highest load forms long probe
 * runs whatever the hash, so erasing every third key removes entries
 * from the middle of runs; re-inserting them, and evictions under a
 * small capacity, reuse freed slots with the other row size; the first
 * rows must survive every index resize the later inserts trigger.
 */
TEST(RowCache, IndexEdgeCasesKeepPayloadsAndAccounting)
{
    for (CachePolicy policy : {CachePolicy::kLRU, CachePolicy::kClock}) {
        for (size_t capacity : {size_t{1} << 30, size_t{2000}}) {
            SCOPED_TRACE(std::string(cachePolicyName(policy)) +
                         " capacity " + std::to_string(capacity));
            RowCache cache(policy, capacity);
            constexpr uint64_t kKeys = 3000;
            // Last payload written per key; its size is the row size.
            std::vector<std::vector<float>> model(kKeys);
            const auto keyOf = [](uint64_t i) {
                return cacheKey(i % 2, i * 64);
            };
            const auto payloadFor = [](uint64_t i, int version) {
                std::vector<float> v((i + version) % 2 == 0 ? 19 : 32);
                for (size_t d = 0; d < v.size(); ++d) {
                    v[d] = static_cast<float>(i) * 100.0f +
                           static_cast<float>(version) +
                           static_cast<float>(d) * 1e-3f;
                }
                return v;
            };
            uint64_t evictions = 0;
            const auto check = [&] {
                size_t resident = 0;
                size_t bytes = 0;
                for (uint64_t i = 0; i < kKeys; ++i) {
                    const float* p = cache.find(keyOf(i));
                    if (p == nullptr) {
                        continue;
                    }
                    ASSERT_FALSE(model[i].empty()) << "key " << i;
                    ASSERT_EQ(std::memcmp(p, model[i].data(),
                                          model[i].size() * sizeof(float)),
                              0)
                        << "key " << i;
                    ++resident;
                    bytes += model[i].size() * sizeof(float);
                }
                ASSERT_EQ(cache.entries(), resident);
                ASSERT_EQ(cache.bytesUsed(), bytes);
            };
            const auto put = [&](uint64_t i, int version) {
                model[i] = payloadFor(i, version);
                cache.insert(keyOf(i), model[i].data(),
                             model[i].size() * sizeof(float), &evictions);
            };
            const auto drop = [&](uint64_t i) {
                cache.erase(keyOf(i));
                model[i].clear();
            };

            // Grow through every index resize, checking sparsely.
            for (uint64_t i = 0; i < kKeys; ++i) {
                put(i, 0);
                if (i % 97 == 0) {
                    ASSERT_NO_FATAL_FAILURE(check());
                }
            }
            ASSERT_NO_FATAL_FAILURE(check());
            if (capacity > kKeys * 32 * sizeof(float)) {
                EXPECT_EQ(cache.entries(), kKeys);
                EXPECT_EQ(evictions, 0u);
                // The first rows survived every resize.
                EXPECT_NE(cache.find(keyOf(0)), nullptr);
            } else {
                EXPECT_GT(evictions, 0u);
            }
            // Erase every third key, scattered across probe runs.
            for (uint64_t i = 0; i < kKeys; i += 3) {
                drop((i * 7) % kKeys);
                if (i % 60 == 0) {
                    ASSERT_NO_FATAL_FAILURE(check());
                }
            }
            ASSERT_NO_FATAL_FAILURE(check());
            // Reuse the freed slots with the other row size.
            for (uint64_t i = 0; i < kKeys; i += 3) {
                const uint64_t k = (i * 7) % kKeys;
                put(k, 1);
                if (i % 60 == 0) {
                    ASSERT_NO_FATAL_FAILURE(check());
                }
            }
            ASSERT_NO_FATAL_FAILURE(check());
            // Size-mismatched refresh erases; matching refresh rewrites.
            for (uint64_t i = 1; i < kKeys; i += 5) {
                std::vector<float> v = payloadFor(i, 2);
                const bool resident = !model[i].empty() &&
                                      cache.find(keyOf(i)) != nullptr;
                const bool same = resident && v.size() == model[i].size();
                EXPECT_EQ(cache.refresh(keyOf(i), v.data(),
                                        v.size() * sizeof(float)),
                          same);
                if (same) {
                    model[i] = v;
                } else if (resident) {
                    model[i].clear();
                }
            }
            ASSERT_NO_FATAL_FAILURE(check());
            // Drain: the cache ends empty and reports zero bytes.
            for (uint64_t i = 0; i < kKeys; ++i) {
                drop(i);
            }
            EXPECT_EQ(cache.entries(), 0u);
            EXPECT_EQ(cache.bytesUsed(), 0u);
        }
    }
}

// --- Concurrency (the TSan target of `ctest -L sanitize`). ------------

TEST(StoreConcurrency, ParallelLookupsUpdatesAndPrefetch)
{
    const int64_t rows = 4096;
    const int64_t dim = 16;
    StoreConfig cfg;
    cfg.numShards = 8;
    cfg.cacheBytesPerShard = 64u << 10;
    auto store = makeStore(rows, dim, cfg);

    const int kThreads = 4;
    const int kBatchesPerThread = 50;
    const int64_t kPerBatch = 256;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const ZipfSampler zipf(static_cast<uint64_t>(rows), 0.9);
            Rng rng(100 + static_cast<uint64_t>(t));
            std::vector<int64_t> indices(
                static_cast<size_t>(kPerBatch));
            std::vector<float> out(static_cast<size_t>(dim));
            std::vector<float> row(static_cast<size_t>(dim), 1.5f);
            for (int b = 0; b < kBatchesPerThread; ++b) {
                fillZipfIndices(zipf, rng, indices.data(), kPerBatch);
                store->warm(0, indices);
                sumRows(*store, indices.data(), kPerBatch, out.data());
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
    EXPECT_EQ(stats.total.lookups,
              static_cast<uint64_t>(kThreads) * kBatchesPerThread *
                  static_cast<uint64_t>(kPerBatch));
    EXPECT_EQ(stats.total.updates,
              static_cast<uint64_t>(kThreads) * kBatchesPerThread);
    EXPECT_LE(store->cacheBytesUsed(), store->cacheCapacityBytes());
}

}  // namespace
}  // namespace recstack
