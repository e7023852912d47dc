/**
 * @file
 * Extension bench: sharded embedding-store cache behaviour.
 *
 * Not a figure from the paper — an extension of its memory analysis
 * (Sec. "The landscape of production recommendation models" + the
 * Fig. 12/14 DRAM discussion): production deployments put the
 * multi-GB embedding tables behind a cached, tiered parameter store,
 * and the Zipfian lookup skew the paper models is exactly what makes
 * a small hot-row cache effective. This bench sweeps cache capacity,
 * Zipf exponent, shard count and replacement policy over a synthetic
 * table and reports demand hit-rates and the modeled p99 lookup cost,
 * plus a prefetch column showing the double-buffered warm-up lifting
 * the demand hit-rate.
 *
 * A third sweep turns on the REAL far tier (store/disk_tier.h): cold
 * rows live in a page file behind a radix-spline learned index, fetch
 * cost is measured wall clock, and a full model (RM2) is served with
 * near-tier DRAM far below one dense copy of its tables.
 */

#include <chrono>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/executor.h"
#include "models/model.h"
#include "models/store_binding.h"
#include "store/embedding_store.h"
#include "store/spline_index.h"

namespace recstack {
namespace {

constexpr int64_t kRows = 200000;
constexpr int64_t kDim = 32;
constexpr int64_t kLookupsPerBatch = 4096;
constexpr int kBatches = 16;

/** Build a store holding one synthetic [kRows, kDim] table. */
std::unique_ptr<EmbeddingStore>
makeStore(size_t cache_bytes_total, int shards, CachePolicy policy,
          double near_fraction)
{
    StoreConfig cfg;
    cfg.numShards = shards;
    cfg.cacheBytesPerShard = cache_bytes_total / static_cast<size_t>(shards);
    cfg.policy = policy;
    cfg.nearTierFraction = near_fraction;
    auto store = std::make_unique<EmbeddingStore>(cfg);
    Tensor table({kRows, kDim});
    Rng rng(99);
    float* data = table.data<float>();
    for (int64_t i = 0; i < kRows * kDim; ++i) {
        data[i] = rng.nextFloat(-1.0f, 1.0f);
    }
    store->addTable("bench_table", std::move(table));
    return store;
}

struct RunStats {
    double hitRate = 0.0;
    double p99Cost = 0.0;
    double expected = 0.0;
};

/**
 * Drive kBatches Zipf(alpha) lookup batches through the store (one
 * warm-up pass excluded from stats) and report the demand hit-rate.
 * With @c prefetch, each batch's indices are queued for async warming
 * and drained before the demand reads — the serving-side double
 * buffer, where the warm-up is overlapped with the previous batch's
 * compute.
 */
RunStats
driveStore(EmbeddingStore& store, double alpha, bool prefetch)
{
    const ZipfSampler zipf(kRows, alpha);
    Rng rng(2024);
    std::vector<int64_t> indices(kLookupsPerBatch);
    std::vector<float> out(kDim);

    const auto run_batch = [&] {
        fillZipfIndices(zipf, rng, indices.data(), kLookupsPerBatch);
        if (prefetch) {
            store.prefetchAsync(0, indices);
            store.drainPrefetch();
        }
        std::fill(out.begin(), out.end(), 0.0f);
        store.forEachRow(0, indices.data(), 0, kLookupsPerBatch,
                         [&](int64_t, const float* row) {
            for (int64_t d = 0; d < kDim; ++d) {
                out[static_cast<size_t>(d)] += row[d];
            }
        });
    };

    run_batch();  // warm-up batch
    store.resetStats();
    for (int b = 0; b < kBatches; ++b) {
        run_batch();
    }
    RunStats rs;
    const StoreStats stats = store.stats();
    rs.hitRate = stats.hitRate();
    rs.p99Cost = stats.costPercentile(0.99);
    rs.expected = store.expectedHitRate(0, alpha);
    return rs;
}

}  // namespace
}  // namespace recstack

int
main()
{
    using namespace recstack;
    using namespace recstack::bench;

    banner("EXT-STORE", "sharded embedding store: hit rate and lookup "
                        "cost vs cache size, skew, shards");
    std::printf("table: %" PRId64 " rows x %" PRId64
                " dims (%.1f MB), %d batches x %" PRId64
                " lookups after warm-up\n\n",
                kRows, kDim,
                static_cast<double>(kRows * kDim * 4) / (1u << 20),
                kBatches, kLookupsPerBatch);

    const std::vector<size_t> kCaches = {64u << 10, 256u << 10,
                                         1u << 20, 4u << 20};
    const std::vector<double> kAlphas = {0.0, 0.6, 0.9, 1.2};

    // --- Sweep 1: cache capacity x Zipf exponent (LRU, 8 shards). ---
    TextTable grid({"cache", "alpha", "hit rate", "expected",
                    "p99 cost", "prefetch hit"});
    // hit[ci][ai] of the demand-only runs, for the PAPER-CHECKs.
    std::vector<std::vector<double>> hit(
        kCaches.size(), std::vector<double>(kAlphas.size(), 0.0));
    std::vector<std::vector<double>> pre_hit = hit;
    for (size_t ci = 0; ci < kCaches.size(); ++ci) {
        for (size_t ai = 0; ai < kAlphas.size(); ++ai) {
            auto store =
                makeStore(kCaches[ci], 8, CachePolicy::kLRU, 0.5);
            const RunStats rs =
                driveStore(*store, kAlphas[ai], /*prefetch=*/false);
            auto warm =
                makeStore(kCaches[ci], 8, CachePolicy::kLRU, 0.5);
            const RunStats ps =
                driveStore(*warm, kAlphas[ai], /*prefetch=*/true);
            hit[ci][ai] = rs.hitRate;
            pre_hit[ci][ai] = ps.hitRate;
            grid.addRow({std::to_string(kCaches[ci] >> 10) + " KB",
                         TextTable::fmt(kAlphas[ai], 1),
                         TextTable::fmtPercent(rs.hitRate),
                         TextTable::fmtPercent(rs.expected),
                         TextTable::fmtSeconds(rs.p99Cost),
                         TextTable::fmtPercent(ps.hitRate)});
        }
    }
    std::printf("%s\n", grid.render().c_str());

    // --- Sweep 2: shard count and policy at fixed 1 MB / alpha 0.9. ---
    TextTable shards({"shards", "policy", "hit rate", "p99 cost"});
    std::vector<double> policy_hit;
    for (int nshards : {1, 4, 16}) {
        for (CachePolicy policy :
             {CachePolicy::kLRU, CachePolicy::kClock}) {
            auto store = makeStore(1u << 20, nshards, policy, 0.5);
            const RunStats rs =
                driveStore(*store, 0.9, /*prefetch=*/false);
            policy_hit.push_back(rs.hitRate);
            shards.addRow({std::to_string(nshards),
                           cachePolicyName(policy),
                           TextTable::fmtPercent(rs.hitRate),
                           TextTable::fmtSeconds(rs.p99Cost)});
        }
    }
    std::printf("%s\n", shards.render().c_str());

    // --- Sweep 3: the real disk far tier (page file + spline). ---
    TextTable disk({"cache", "hit rate", "disk fetches", "disk p99",
                    "resident"});
    std::vector<double> disk_hit;
    bool disk_served = true;
    for (size_t cache : kCaches) {
        StoreConfig cfg;
        cfg.numShards = 8;
        cfg.cacheBytesPerShard = cache / 8;
        cfg.nearTierFraction = 0.25;
        cfg.farTier = FarTierKind::kDisk;
        auto store = std::make_unique<EmbeddingStore>(cfg);
        {
            Tensor table({kRows, kDim});
            Rng rng(99);
            float* data = table.data<float>();
            for (int64_t i = 0; i < kRows * kDim; ++i) {
                data[i] = rng.nextFloat(-1.0f, 1.0f);
            }
            store->addTable("bench_table", std::move(table));
        }
        const RunStats rs = driveStore(*store, 0.9, /*prefetch=*/false);
        const StoreStats stats = store->stats();
        if (stats.total.diskFetches == 0) {
            disk_served = false;
        }
        disk_hit.push_back(rs.hitRate);
        disk.addRow({std::to_string(cache >> 10) + " KB",
                     TextTable::fmtPercent(rs.hitRate),
                     std::to_string(stats.total.diskFetches),
                     TextTable::fmtSeconds(stats.diskCostPercentile(0.99)),
                     std::to_string(store->residentBytes() >> 10) +
                         " KB"});
    }
    std::printf("%s\n", disk.render().c_str());
    bool disk_cap_monotone = true;
    for (size_t i = 1; i < disk_hit.size(); ++i) {
        if (disk_hit[i] + 0.01 < disk_hit[i - 1]) {
            disk_cap_monotone = false;
        }
    }

    // --- Spline vs. binary search on the cold-key set. ---
    // ~2M sparse keys with random gaps (no closed-form position, so
    // the spline has real segments to fit); accumulate the found
    // ordinals so the loop cannot be optimized away. Best of three
    // trials per side.
    const size_t kSplineKeys = 2'000'000;
    std::vector<uint64_t> cold_keys;
    cold_keys.reserve(kSplineKeys);
    {
        Rng rng(31);
        uint64_t k = 1000;
        for (size_t i = 0; i < kSplineKeys; ++i) {
            k += 1 + rng.nextBounded(10007);
            cold_keys.push_back(k);
        }
    }
    const SplineIndex spline(cold_keys, {});
    std::vector<uint64_t> probes = cold_keys;
    {
        Rng rng(7);
        for (size_t i = probes.size(); i > 1; --i) {
            std::swap(probes[i - 1],
                      probes[rng.nextBounded(static_cast<uint64_t>(i))]);
        }
    }
    uint64_t sink = 0;
    double spline_s = 1e30;
    double binary_s = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t key : probes) {
            sink += spline.find(key);
        }
        spline_s = std::min(
            spline_s, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
        t0 = std::chrono::steady_clock::now();
        for (uint64_t key : probes) {
            sink += spline.findBinarySearch(key);
        }
        binary_s = std::min(
            binary_s, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
    const SplineIndexStats ss = spline.stats();
    std::printf("spline index: %zu keys, %zu segments, err bound %zu "
                "(observed %zu), %zu KB; lookup %.1f ns vs binary "
                "search %.1f ns (sink %" PRIu64 ")\n\n",
                ss.numKeys, ss.numSegments, ss.maxErrorBound,
                ss.maxErrorObserved, ss.indexBytes >> 10,
                1e9 * spline_s / static_cast<double>(probes.size()),
                1e9 * binary_s / static_cast<double>(probes.size()),
                sink);

    // --- A whole model served mostly from disk. ---
    bool model_from_disk = true;
    bool model_bit_exact = true;
    uint64_t model_dense_bytes = 0;
    uint64_t model_resident = 0;
    {
        ModelOptions opts = tinyOptions();
        opts.tableScale = 0.05;
        const Model model = buildModel(ModelId::kRM2, opts);
        Workspace ref_ws;
        model.initParams(ref_ws);
        {
            BatchGenerator gen(model.workload, /*seed=*/77);
            gen.materialize(ref_ws, 64);
        }
        Executor::run(model.net, ref_ws, ExecMode::kNumericOnly);

        StoreConfig cfg;
        cfg.numShards = 4;
        cfg.cacheBytesPerShard = 16u << 10;
        cfg.nearTierFraction = 0.05;  // tables >> near-tier bytes
        cfg.farTier = FarTierKind::kDisk;
        const StoreBackedModel disk_model(model, cfg);
        Workspace ws;
        disk_model.bind(ws);
        BatchGenerator gen(model.workload, /*seed=*/77);
        gen.materialize(ws, 64);
        Executor::run(model.net, ws, ExecMode::kNumericOnly);
        for (const std::string& blob : model.net.externalOutputs()) {
            const Tensor& a = ref_ws.get(blob);
            const Tensor& b = ws.get(blob);
            if (std::memcmp(a.data<float>(), b.data<float>(),
                            a.byteSize()) != 0) {
                model_bit_exact = false;
            }
        }
        const EmbeddingStore& store = disk_model.store();
        for (size_t t = 0; t < store.numTables(); ++t) {
            const auto& info = store.tableInfo(static_cast<int>(t));
            model_dense_bytes += static_cast<uint64_t>(
                info.rows * info.dim * 4);
        }
        model_resident = store.tableBytes();
        if (store.stats().total.diskFetches == 0 ||
            model_resident >= model_dense_bytes) {
            model_from_disk = false;
        }
        std::printf("RM2 from disk: dense tables %.1f MB, resident "
                    "near tier %.1f MB, disk fetches %" PRIu64
                    ", file %.1f MB\n\n",
                    static_cast<double>(model_dense_bytes) / (1u << 20),
                    static_cast<double>(model_resident) / (1u << 20),
                    store.stats().total.diskFetches,
                    static_cast<double>(store.diskFileBytes()) /
                        (1u << 20));
    }

    // --- Checks. ---
    bool cap_monotone = true;
    for (size_t ai = 0; ai < kAlphas.size(); ++ai) {
        for (size_t ci = 1; ci < kCaches.size(); ++ci) {
            // Tolerate sub-percent sampling noise at uniform skew.
            if (hit[ci][ai] + 0.01 < hit[ci - 1][ai]) {
                cap_monotone = false;
            }
        }
    }
    bool skew_monotone = true;
    for (size_t ci = 0; ci < kCaches.size(); ++ci) {
        for (size_t ai = 1; ai < kAlphas.size(); ++ai) {
            if (hit[ci][ai] + 0.01 < hit[ci][ai - 1]) {
                skew_monotone = false;
            }
        }
    }
    // Prefetching a batch that overflows the cache self-evicts; the
    // useful regime is a cache holding at least one batch, where the
    // warm-up converts every demand miss into a hit. Outside it the
    // perturbation must stay in the noise.
    bool prefetch_helps = true;
    const size_t batch_bytes =
        static_cast<size_t>(kLookupsPerBatch * kDim * 4);
    for (size_t ci = 0; ci < kCaches.size(); ++ci) {
        for (size_t ai = 0; ai < kAlphas.size(); ++ai) {
            if (kCaches[ci] >= 2 * batch_bytes) {
                if (pre_hit[ci][ai] < 0.99) {
                    prefetch_helps = false;
                }
            } else if (pre_hit[ci][ai] + 0.02 < hit[ci][ai]) {
                prefetch_helps = false;
            }
        }
    }
    bool clock_tracks_lru = true;
    for (size_t i = 0; i + 1 < policy_hit.size(); i += 2) {
        if (std::fabs(policy_hit[i] - policy_hit[i + 1]) > 0.10) {
            clock_tracks_lru = false;
        }
    }

    checkHeader();
    check(cap_monotone, "hit rate rises monotonically with cache "
                        "capacity at every Zipf exponent");
    check(skew_monotone, "hit rate rises monotonically with Zipf "
                         "exponent at every cache capacity (hot-entry "
                         "skew is what makes small caches work)");
    check(prefetch_helps,
          "async next-batch prefetch turns a batch-sized cache into "
          "all demand hits (double-buffered warm-up)");
    check(clock_tracks_lru, "CLOCK second-chance stays within 10% "
                            "hit-rate of exact LRU at every shard "
                            "count");
    check(disk_cap_monotone && disk_served,
          "with the disk far tier live, demand hit rate still rises "
          "monotonically with cache capacity and cold rows really "
          "come off the page file");
    checkHostTimed(spline_s <= binary_s * 1.10,
                   "radix-spline lookup is at least as fast as binary "
                   "search over the 2M-key cold set");
    check(model_bit_exact && model_from_disk,
          "a model whose tables exceed the near tier serves "
          "bit-exactly from disk with resident table DRAM below one "
          "dense copy");
    return recstack::bench::exitStatus();
}
