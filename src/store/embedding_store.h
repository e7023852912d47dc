#ifndef RECSTACK_STORE_EMBEDDING_STORE_H_
#define RECSTACK_STORE_EMBEDDING_STORE_H_

/**
 * @file
 * Sharded embedding parameter store.
 *
 * Production recommendation models keep GBs of embedding tables behind
 * a parameter-server boundary rather than inside each inference
 * worker; the lookup stream is strongly Zipfian (hot users/items), so
 * a small hot-row cache absorbs most of the traffic while the cold
 * tail lives in cheaper, slower memory (UPMEM/EmbedDB-style tiering).
 * EmbeddingStore reproduces that structure in-process:
 *
 *  - All embedding tables of a model live in one store, row-partitioned
 *    across N shards. Each shard has its own mutex, hot-row cache
 *    (store/row_cache.h, LRU or CLOCK, byte-capacity bound) and
 *    counters, so concurrent ServingNode workers contend only on
 *    rows that hash to the same shard.
 *  - Backing rows are split into a near tier (resident, DRAM-like) and
 *    a far tier. The far tier comes in two kinds
 *    (StoreConfig::farTier):
 *      * kSimulated (default): cold rows stay in DRAM and every miss
 *        is charged modeled latency + bytes/bandwidth — fully
 *        deterministic, byte-identical to the pre-disk store.
 *      * kDisk: cold rows are REAL — written to a page-based file
 *        (store/disk_tier.h) indexed by a radix-spline learned index
 *        (store/spline_index.h) and dropped from DRAM, so tables
 *        larger than the configured near tier actually serve from
 *        disk. Fetch time is measured wall clock, not modeled, and a
 *        background promotion loop (the prefetch thread) moves rows
 *        whose demand access count crosses a threshold into a
 *        per-shard promoted DRAM slab; the slab's CLOCK evictions are
 *        the demotions (the disk copy is authoritative, so demotion
 *        never writes).
 *  - forEachRow resolves a lookup stream to row payloads, in order,
 *    and hands each to the caller under its shard lock. The store
 *    never pools or copies: the embedding ops (ops/embedding.cc) run
 *    the one pooling and copy loop for dense and store-backed tables
 *    alike, and cached, near, promoted and disk copies are all
 *    verbatim row payloads, so results are bit-identical to reading
 *    a dense Workspace blob.
 *  - prefetchAsync warms the cache with the next batch's indices on a
 *    background thread (the classic double-buffered embedding
 *    prefetch), overlapping far-tier fetches with current-batch
 *    compute. Indices are deduplicated per task before queueing.
 *
 * Env knob: RECSTACK_STORE_DIR picks the page-file directory
 * (default: a fresh temp dir removed with the store).
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "store/disk_tier.h"
#include "store/row_cache.h"
#include "store/spline_index.h"
#include "tensor/tensor.h"

namespace recstack {

/** What backs the far tier of an EmbeddingStore. */
enum class FarTierKind {
    kSimulated,  ///< cold rows in DRAM, cost modeled (deterministic)
    kDisk,       ///< cold rows in a page file, cost measured
};

/** Printable far-tier name ("simulated" / "disk"). */
const char* farTierKindName(FarTierKind kind);

/**
 * Disk far-tier knobs (used when StoreConfig::farTier == kDisk): the
 * page file's own DiskTierConfig plus where it lives and how rows
 * are promoted off it.
 */
struct DiskTierOptions : DiskTierConfig {
    /// Page-file directory; "" resolves RECSTACK_STORE_DIR, then a
    /// fresh mkdtemp dir owned (and removed) by the store.
    std::string dir;
    /// Per-shard DRAM budget for rows promoted off the disk tier.
    size_t promotedBytesPerShard = 256u << 10;
    /// Demand fetches of a cold row before the promotion loop copies
    /// it into the promoted slab (0 disables promotion).
    uint32_t promoteThreshold = 4;
};

/// Tier cost model: a per-row fetch pays the tier's latency plus
/// bytes / bandwidth; a hot-row cache hit pays only its latency.
/// Hits cost on-package SRAM-ish time, near fetches a local DRAM row
/// read, far fetches a CXL/NVM/remote-style read.
inline constexpr double kCacheHitLatencySeconds = 8e-9;
inline constexpr double kNearLatencySeconds = 1.2e-7;
inline constexpr double kNearBandwidthGBs = 64.0;
inline constexpr double kFarLatencySeconds = 2.0e-6;
inline constexpr double kFarBandwidthGBs = 8.0;

/** Shard / cache / tier knobs of an EmbeddingStore. */
struct StoreConfig {
    /// Row-partition count; also the lock granularity.
    int numShards = 8;
    /// Hot-row cache capacity per shard (bytes of row payload).
    size_t cacheBytesPerShard = 1u << 20;
    /// Replacement policy of every shard cache.
    CachePolicy policy = CachePolicy::kLRU;
    /// Leading fraction of each table's rows resident in the near
    /// tier; the remainder lives in the far tier. The Zipf head is
    /// low row indices, so hot rows are near by construction.
    double nearTierFraction = 1.0;
    /// Far-tier backing; kSimulated keeps every pre-disk default
    /// byte-identical.
    FarTierKind farTier = FarTierKind::kSimulated;
    /// Disk-tier knobs (ignored under kSimulated).
    DiskTierOptions disk;
};

/** Counters one shard accumulates under its lock. */
struct ShardCounters {
    uint64_t lookups = 0;        ///< demand row reads
    uint64_t hits = 0;           ///< served from the hot-row cache
    uint64_t nearFetches = 0;    ///< misses served by the near tier
                                 ///  (incl. the promoted DRAM slab)
    uint64_t farFetches = 0;     ///< misses served by the far tier
                                 ///  (simulated kind only)
    uint64_t diskFetches = 0;    ///< misses served by the disk tier
    uint64_t evictions = 0;
    uint64_t updates = 0;
    uint64_t prefetchedRows = 0; ///< rows warmed by prefetch, not demand
    uint64_t promotedRows = 0;   ///< disk rows promoted to the slab
    uint64_t demotedRows = 0;    ///< slab CLOCK evictions (demotions)
    uint64_t bytesFromCache = 0;
    uint64_t bytesFromNear = 0;
    uint64_t bytesFromFar = 0;
    uint64_t bytesFromDisk = 0;
    uint64_t cacheBytesUsed = 0; ///< snapshot at stats() time
    double simSeconds = 0.0;     ///< modeled fetch time, demand reads
    double diskSeconds = 0.0;    ///< MEASURED wall clock in disk reads

    void accumulate(const ShardCounters& other);
    /** Cache hit fraction; defined as 0.0 when lookups == 0. */
    double hitRate() const;
};

/** Aggregated store statistics (stats() snapshot). */
struct StoreStats {
    std::vector<ShardCounters> perShard;
    ShardCounters total;
    /// Modeled per-row demand fetch cost -> occurrence count; the
    /// domain is tiny (one cost per tier per table) so percentiles
    /// are exact.
    std::map<double, uint64_t> costHistogram;
    /// Measured per-row disk fetch seconds, bucketed to powers of
    /// two of a nanosecond so the map stays small.
    std::map<double, uint64_t> diskSecondsHistogram;
    /// Whether the snapshot came from a store with a live disk tier.
    bool diskTierActive = false;
    /// Page/pool/index counters of the disk tier (zero when
    /// inactive or not yet touched).
    DiskTierStats diskTier;

    double hitRate() const { return total.hitRate(); }
    /**
     * Exact p-th percentile (p in [0,1]) of modeled per-row fetch
     * cost. An empty histogram (no demand lookups yet) returns 0.0.
     */
    double costPercentile(double p) const;
    /**
     * p-th percentile of MEASURED per-row disk fetch seconds (bucket
     * upper bounds). Returns 0.0 when no disk fetch happened.
     */
    double diskCostPercentile(double p) const;
};

/**
 * Re-export a StoreStats snapshot's totals into the global
 * MetricsRegistry (store.lookups / store.hits / store.near_fetches /
 * store.far_fetches / store.disk_fetches / store.evictions /
 * store.promoted_rows / store.demoted_rows counters plus the
 * store.cache_bytes_used and store.disk_seconds gauges), so store
 * health shows up in the same snapshot as executor/queue/serving
 * metrics. Counters are cumulative across calls; reset the registry
 * before a measured run.
 */
void exportStoreStats(const StoreStats& stats);

/** Process-wide sharded embedding table store. See file comment. */
class EmbeddingStore
{
  public:
    explicit EmbeddingStore(StoreConfig config = {});
    ~EmbeddingStore();

    EmbeddingStore(const EmbeddingStore&) = delete;
    EmbeddingStore& operator=(const EmbeddingStore&) = delete;

    /** Table metadata. */
    struct TableInfo {
        std::string name;
        int64_t rows = 0;
        int64_t dim = 0;
        int64_t nearRows = 0;      ///< rows [0, nearRows) are near-tier
        bool materialized = false;
    };

    /**
     * Move a materialized [rows, dim] float table into the store.
     * Returns the table id ops use for lookups. Under a disk far
     * tier, rows [nearRows, rows) are spilled to the page file and
     * only the near head stays in DRAM; every table must be added
     * before the first lookup (the learned index is built once).
     */
    int addTable(const std::string& name, Tensor data);

    /**
     * Register table metadata without payload (profile-only stacks):
     * lookups panic, but tableInfo / expectedHitRate / the profile
     * stream split all work.
     */
    int declareTable(const std::string& name, int64_t rows, int64_t dim);

    /** Table id for a blob name, or -1 if this store does not own it. */
    int tableId(const std::string& name) const;
    const TableInfo& tableInfo(int table) const;
    size_t numTables() const { return tables_.size(); }

    /**
     * Ordered row visit, the store's half of every lookup kernel:
     * for each p in [lo, hi), ascending, calls fn(p, row) with the
     * verbatim payload of row indices[p] (cache copy, backing row,
     * promoted slab or disk read) and charges one demand read. fn
     * runs under that row's shard lock: it must consume the row
     * before returning and must not call back into the store. One
     * `store.rows` span covers the call.
     */
    template <class Fn>
    void forEachRow(int table, const int64_t* indices, int64_t lo,
                    int64_t hi, Fn&& fn)
    {
        const Table& t = tableAt(table);
        ensureDiskReady();
        RECSTACK_SPAN("store.rows", {{"table", table}, {"rows", hi - lo}});
        for (int64_t p = lo; p < hi; ++p) {
            const int64_t row = indices[p];
            Shard& shard = *shards_[shardOf(table, row)];
            std::lock_guard<std::mutex> lock(shard.mu);
            fn(p, fetchRowLocked(t, table, row, shard));
        }
    }

    /**
     * Write one row through to the backing table (DRAM or disk page)
     * and refresh any cached/promoted copy, so no reader ever
     * observes the stale payload.
     */
    void update(int table, int64_t row, const float* values);

    /**
     * Queue the next batch's indices for cache warming on the
     * background prefetch thread (started lazily). Duplicate indices
     * are coalesced per task before queueing, so warm traffic never
     * pays repeated shard-lock acquisitions for the same row.
     */
    void prefetchAsync(int table, std::vector<int64_t> indices);

    /**
     * Block until the async prefetch queue — and, under a disk far
     * tier, any pending promotions — is fully drained.
     */
    void drainPrefetch();

    StoreStats stats() const;
    void resetStats();

    /**
     * Bytes of DRAM-resident backing tables. Under a disk far tier
     * this is only the near heads — the cold tail lives in the page
     * file (diskFileBytes()).
     */
    uint64_t tableBytes() const;
    /** Bytes currently held by the shard caches. */
    uint64_t cacheBytesUsed() const;
    /** Total cache capacity across shards. */
    uint64_t cacheCapacityBytes() const;
    /** Bytes held by the per-shard promoted DRAM slabs (disk tier). */
    uint64_t promotedBytesUsed() const;
    /** Size of the disk tier's page file (0 when inactive). */
    uint64_t diskFileBytes() const;
    /**
     * The store's whole DRAM footprint: near tables + caches +
     * promoted slabs + the disk tier's buffer-pool frames.
     */
    uint64_t residentBytes() const;

    /**
     * Analytical hit-rate expectation for a Zipf(zipf) stream over
     * this table, from the sampler's own CDF: the cache is modeled as
     * holding the hottest rows, with total capacity split evenly
     * across tables. Exact for single-table stores at steady state;
     * an upper-bound approximation under multi-table interleaving.
     */
    double expectedHitRate(int table, double zipf) const;

    /**
     * Expected fraction of lookups served by the far tier (misses
     * past both the cache and the near-tier boundary).
     */
    double farTierFraction(int table, double zipf) const;

    const StoreConfig& config() const { return config_; }

    /** True when the far tier is disk-backed (farTier == kDisk). */
    bool diskTierActive() const
    {
        return config_.farTier == FarTierKind::kDisk;
    }
    /** The live disk tier, or nullptr before the first lookup /
     *  when inactive. */
    const DiskTier* diskTier() const { return diskTier_.get(); }

    /**
     * The store's row-partition function, exposed so fleet placement
     * (src/fleet/placement.h) assigns embedding rows to nodes with
     * exactly the rule the store shards by: the table-id offset
     * decorrelates the Zipf heads of co-stored tables (all hot at
     * row 0) across partitions. shardOf() delegates here.
     */
    static size_t rowShard(int table, int64_t row, size_t num_shards);

  private:
    /// Slots of the per-shard approximate access-count table; key
    /// collisions conflate rows, which only ever promotes early.
    static constexpr size_t kHotnessSlots = 4096;
    /// Bounded pending-promotion ring per shard (drop-new when full;
    /// a dropped key re-queues on its next demand fetch).
    static constexpr size_t kPromoRingSlots = 256;

    struct Table {
        TableInfo info;
        Tensor data;
    };
    struct Shard {
        mutable std::mutex mu;
        std::unique_ptr<RowCache> cache;
        /// Disk-tier promoted slab (null under kSimulated).
        std::unique_ptr<RowCache> promoted;
        ShardCounters counters;
        std::map<double, uint64_t> costs;
        std::map<double, uint64_t> diskCosts;
        /// Preallocated disk-read row buffer (guarded by mu).
        std::vector<float> scratch;
        std::array<uint32_t, kHotnessSlots> hotness{};
        std::array<uint64_t, kPromoRingSlots> promoRing{};
        size_t promoRingSize = 0;
    };
    struct PrefetchTask {
        int table = 0;
        std::vector<int64_t> indices;
    };

    int registerTable(const std::string& name, TableInfo info,
                      Tensor data);
    /// The table with this id; panics "table id ... out of range"
    /// for any id outside [0, numTables()).
    const Table& tableAt(int table) const;
    Table& tableAt(int table);
    size_t shardOf(int table, int64_t row) const;
    /// Returns the row payload (cache copy, backing row, promoted
    /// slab, or per-shard scratch filled from disk), valid while the
    /// shard lock is held; charges stats for a demand read.
    const float* fetchRowLocked(const Table& t, int table, int64_t row,
                                Shard& shard);
    void warmRow(int table, int64_t row);
    void prefetchLoop();
    /// Finalize the disk builder into a servable tier + start the
    /// promotion-capable background thread. Idempotent; called from
    /// every lookup entry point.
    void ensureDiskReady();
    void servicePromotions();
    void startPrefetchThreadLocked();

    StoreConfig config_;
    std::vector<Table> tables_;
    std::map<std::string, int> tableByName_;
    std::vector<std::unique_ptr<Shard>> shards_;

    // Disk far tier (all null/empty under kSimulated).
    std::unique_ptr<DiskTier::Builder> diskBuilder_;
    std::unique_ptr<DiskTier> diskTier_;
    std::string diskDir_;
    bool ownsDiskDir_ = false;
    std::once_flag diskOnce_;
    std::atomic<bool> diskFinalized_{false};
    std::atomic<bool> promoPending_{false};
    int64_t maxDim_ = 0;

    std::mutex prefetchMu_;
    std::condition_variable prefetchCv_;
    std::condition_variable prefetchIdleCv_;
    std::deque<PrefetchTask> prefetchQueue_;
    std::thread prefetchThread_;
    bool prefetchBusy_ = false;
    bool promoBusy_ = false;
    bool prefetchStop_ = false;
};

}  // namespace recstack

#endif  // RECSTACK_STORE_EMBEDDING_STORE_H_
