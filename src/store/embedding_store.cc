#include "store/embedding_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace recstack {
namespace {

/** 64-bit (table, row) cache key; rows stay far below 2^40. */
uint64_t
rowKey(int table, int64_t row)
{
    return (static_cast<uint64_t>(table) << 40) |
           static_cast<uint64_t>(row);
}

double
fetchCost(double latency_s, double bandwidth_gbs, uint64_t bytes)
{
    return latency_s +
           static_cast<double>(bytes) / (bandwidth_gbs * 1e9);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Bucket a measured duration to the next power of two of a
 * nanosecond, so the per-shard measured-cost map stays tiny no
 * matter how many distinct wall-clock values occur.
 */
double
diskCostBucket(double seconds)
{
    if (seconds <= 1e-9) {
        return 1e-9;
    }
    return std::exp2(std::ceil(std::log2(seconds)));
}

/** Shared exact-percentile walk over a cost -> count map. */
double
percentileOfCountMap(const std::map<double, uint64_t>& hist, double p)
{
    uint64_t n = 0;
    for (const auto& [cost, count] : hist) {
        n += count;
    }
    if (n == 0) {
        return 0.0;
    }
    const uint64_t rank = static_cast<uint64_t>(
        std::min<double>(static_cast<double>(n - 1),
                         std::max(0.0, p) * static_cast<double>(n)));
    uint64_t seen = 0;
    for (const auto& [cost, count] : hist) {
        seen += count;
        if (seen > rank) {
            return cost;
        }
    }
    return hist.rbegin()->first;
}

/**
 * Resolve the page-file directory: explicit config dir, then
 * RECSTACK_STORE_DIR, then a fresh mkdtemp dir the store owns (and
 * removes when it dies).
 */
std::string
resolveDiskDir(const std::string& configured, bool* owns)
{
    *owns = false;
    if (!configured.empty()) {
        std::filesystem::create_directories(configured);
        return configured;
    }
    const char* env = std::getenv("RECSTACK_STORE_DIR");
    if (env != nullptr && *env != '\0') {
        std::filesystem::create_directories(env);
        return env;
    }
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
        "/recstack_store.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    RECSTACK_CHECK(::mkdtemp(buf.data()) != nullptr,
                   "cannot create store temp dir from template '"
                       << tmpl << "'");
    *owns = true;
    return std::string(buf.data());
}

}  // namespace

const char*
farTierKindName(FarTierKind kind)
{
    switch (kind) {
      case FarTierKind::kSimulated: return "simulated";
      case FarTierKind::kDisk: return "disk";
    }
    return "?";
}

void
ShardCounters::accumulate(const ShardCounters& other)
{
    lookups += other.lookups;
    hits += other.hits;
    nearFetches += other.nearFetches;
    farFetches += other.farFetches;
    diskFetches += other.diskFetches;
    evictions += other.evictions;
    updates += other.updates;
    prefetchedRows += other.prefetchedRows;
    promotedRows += other.promotedRows;
    demotedRows += other.demotedRows;
    promotionRejects += other.promotionRejects;
    bytesFromCache += other.bytesFromCache;
    bytesFromNear += other.bytesFromNear;
    bytesFromFar += other.bytesFromFar;
    bytesFromDisk += other.bytesFromDisk;
    cacheBytesUsed += other.cacheBytesUsed;
    simSeconds += other.simSeconds;
    diskSeconds += other.diskSeconds;
}

double
ShardCounters::hitRate() const
{
    // Zero lookups define a 0.0 hit rate (not NaN): an untouched
    // store has not demonstrated any hit. Pinned by
    // tests/test_store.cc (StoreEdgeCases).
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
}

double
StoreStats::costPercentile(double p) const
{
    // Empty histogram -> 0.0 (no demand fetch has a defined cost
    // yet). Pinned by tests/test_store.cc (StoreEdgeCases).
    return percentileOfCountMap(costHistogram, p);
}

double
StoreStats::diskCostPercentile(double p) const
{
    return percentileOfCountMap(diskSecondsHistogram, p);
}

EmbeddingStore::EmbeddingStore(StoreConfig config)
    : config_(config)
{
    RECSTACK_CHECK(config_.numShards >= 1,
                   "store needs at least one shard");
    RECSTACK_CHECK(config_.nearTierFraction >= 0.0 &&
                       config_.nearTierFraction <= 1.0,
                   "nearTierFraction must be in [0, 1]");
    shards_.reserve(static_cast<size_t>(config_.numShards));
    for (int s = 0; s < config_.numShards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->cache = std::make_unique<RowCache>(
            config_.policy, config_.cacheBytesPerShard);
        if (diskTierActive()) {
            // Promotion targets use CLOCK: evicting (demoting) a
            // promoted row is free — the disk copy is authoritative.
            shard->promoted = std::make_unique<RowCache>(
                CachePolicy::kClock,
                config_.disk.promotedBytesPerShard);
            shard->sketch = std::make_unique<FrequencySketch>();
        }
        shards_.push_back(std::move(shard));
    }
}

EmbeddingStore::~EmbeddingStore()
{
    {
        std::lock_guard<std::mutex> lock(prefetchMu_);
        prefetchStop_ = true;
    }
    prefetchCv_.notify_all();
    if (prefetchThread_.joinable()) {
        prefetchThread_.join();
    }
    diskTier_.reset();     // unlinks the page file (unless keepFile)
    diskBuilder_.reset();  // abandoned build unlinks too
    if (ownsDiskDir_) {
        ::rmdir(diskDir_.c_str());  // fails harmlessly if non-empty
    }
}

int
EmbeddingStore::registerTable(const std::string& name, TableInfo info,
                              Tensor data)
{
    RECSTACK_CHECK(tableByName_.count(name) == 0,
                   "store already owns a table named '" << name << "'");
    RECSTACK_CHECK(info.rows > 0 && info.dim > 0,
                   "table '" << name << "' needs positive rows and dim");
    info.name = name;
    info.nearRows = std::min<int64_t>(
        info.rows,
        static_cast<int64_t>(std::ceil(
            config_.nearTierFraction * static_cast<double>(info.rows))));
    maxDim_ = std::max(maxDim_, info.dim);
    const int id = static_cast<int>(tables_.size());

    if (diskTierActive() && info.materialized &&
        info.nearRows < info.rows) {
        RECSTACK_CHECK(!diskFinalized_.load(std::memory_order_acquire),
                       "disk-tier stores must receive every table "
                       "before the first lookup (the learned index "
                       "is built once); cannot add '"
                           << name << "' now");
        if (diskBuilder_ == nullptr) {
            diskDir_ = resolveDiskDir(config_.disk.dir, &ownsDiskDir_);
            static std::atomic<uint64_t> seq{0};
            const std::string path =
                diskDir_ + "/store_" + std::to_string(::getpid()) +
                "_" + std::to_string(seq.fetch_add(1)) + ".pages";
            diskBuilder_ =
                std::make_unique<DiskTier::Builder>(path, config_.disk);
        }
        // Spill the cold tail to the page file and keep only the
        // near head resident — this is what lets tables larger than
        // the near tier actually be served.
        diskBuilder_->beginTable(id, info.dim);
        const float* src = data.data<float>();
        for (int64_t row = info.nearRows; row < info.rows; ++row) {
            diskBuilder_->appendRow(row, src + row * info.dim);
        }
        Tensor near_head({info.nearRows, info.dim});
        if (info.nearRows > 0) {
            std::memcpy(near_head.data<float>(), src,
                        static_cast<size_t>(info.nearRows * info.dim) *
                            sizeof(float));
        }
        data = std::move(near_head);
    }

    Table t;
    t.info = std::move(info);
    t.data = std::move(data);
    tables_.push_back(std::move(t));
    tableByName_[name] = id;
    return id;
}

int
EmbeddingStore::addTable(const std::string& name, Tensor data)
{
    RECSTACK_CHECK(data.rank() == 2 && data.dtype() == DType::kFloat32,
                   "store table '" << name << "' must be 2-D float");
    RECSTACK_CHECK(data.materialized(),
                   "addTable needs a materialized tensor; use "
                   "declareTable for shape-only stacks");
    TableInfo info;
    info.rows = data.dim(0);
    info.dim = data.dim(1);
    info.materialized = true;
    return registerTable(name, std::move(info), std::move(data));
}

int
EmbeddingStore::declareTable(const std::string& name, int64_t rows,
                             int64_t dim)
{
    TableInfo info;
    info.rows = rows;
    info.dim = dim;
    info.materialized = false;
    return registerTable(name, std::move(info),
                         Tensor::shapeOnly({rows, dim}));
}

int
EmbeddingStore::tableId(const std::string& name) const
{
    auto it = tableByName_.find(name);
    return it == tableByName_.end() ? -1 : it->second;
}

const EmbeddingStore::Table&
EmbeddingStore::tableAt(int table) const
{
    RECSTACK_CHECK(table >= 0 &&
                       table < static_cast<int>(tables_.size()),
                   "table id " << table << " out of range");
    return tables_[static_cast<size_t>(table)];
}

EmbeddingStore::Table&
EmbeddingStore::tableAt(int table)
{
    return const_cast<Table&>(std::as_const(*this).tableAt(table));
}

const EmbeddingStore::TableInfo&
EmbeddingStore::tableInfo(int table) const
{
    return tableAt(table).info;
}

size_t
EmbeddingStore::rowShard(int table, int64_t row, size_t num_shards)
{
    // Offsetting by the table id decorrelates the Zipf heads of
    // co-stored tables (all hot at row 0) across shards.
    return static_cast<size_t>(
        (static_cast<uint64_t>(row) + static_cast<uint64_t>(table)) %
        static_cast<uint64_t>(num_shards));
}

size_t
EmbeddingStore::shardOf(int table, int64_t row) const
{
    return rowShard(table, row,
                    static_cast<size_t>(config_.numShards));
}

void
EmbeddingStore::startPrefetchThreadLocked()
{
    if (!prefetchThread_.joinable()) {
        prefetchThread_ = std::thread([this] { prefetchLoop(); });
    }
}

void
EmbeddingStore::ensureDiskReady()
{
    if (!diskTierActive() ||
        diskFinalized_.load(std::memory_order_acquire)) {
        return;
    }
    std::call_once(diskOnce_, [this] {
        if (diskBuilder_ != nullptr) {
            diskTier_ = diskBuilder_->finish();
            diskBuilder_.reset();
        }
        for (auto& shard : shards_) {
            shard->scratch.resize(static_cast<size_t>(maxDim_));
        }
        if (diskTier_ != nullptr) {
            // The existing prefetch thread doubles as the
            // promotion/demotion worker.
            std::lock_guard<std::mutex> lock(prefetchMu_);
            startPrefetchThreadLocked();
        }
        diskFinalized_.store(true, std::memory_order_release);
    });
}

const float*
EmbeddingStore::fetchRowLocked(const Table& t, int table, int64_t row,
                               Shard& shard)
{
    const uint64_t row_bytes =
        static_cast<uint64_t>(t.info.dim) * sizeof(float);
    ShardCounters& c = shard.counters;
    ++c.lookups;
    const uint64_t key = rowKey(table, row);
    // One modeled tier charge: count the fetch and its bytes, add its
    // cost to simSeconds and the histogram, then cache the row unless
    // the cache served it. A cache hit is not refilled, so no fill
    // mutates the cache src points into; forEachRow's fn consumes the
    // returned payload before the next fetch can mutate shard.cache.
    const auto charge = [&](const float* src, uint64_t& fetches,
                            uint64_t& bytes, double cost, bool fill) {
        ++fetches;
        bytes += row_bytes;
        c.simSeconds += cost;
        ++shard.costs[cost];
        if (fill) {
            shard.cache->insert(key, src, row_bytes, &c.evictions);
        }
        return src;
    };
    const float* cached = shard.cache->find(key);
    if (cached != nullptr) {
        return charge(cached, c.hits, c.bytesFromCache,
                      kCacheHitLatencySeconds, false);
    }
    RECSTACK_CHECK(t.info.materialized,
                   "lookup on declared-only store table '"
                       << t.info.name << "'");
    const double near_cost =
        fetchCost(kNearLatencySeconds, kNearBandwidthGBs, row_bytes);
    if (row < t.info.nearRows) {
        return charge(t.data.data<float>() + row * t.info.dim,
                      c.nearFetches, c.bytesFromNear, near_cost, true);
    }
    if (diskTierActive()) {
        // Promoted slab: a DRAM copy of a hot disk row. Charged as a
        // near fetch — it is the near tier for disk-resident rows.
        // Filling shard.cache from prom mutates only that cache, so
        // prom stays valid for the caller. The hit counts in the
        // sketch, so a promoted row keeps its rating against the
        // candidates that would displace it.
        const float* prom = shard.promoted->find(key);
        if (prom != nullptr) {
            shard.sketch->increment(key);
            return charge(prom, c.nearFetches, c.bytesFromNear,
                          near_cost, true);
        }
        RECSTACK_CHECK(diskTier_ != nullptr,
                       "disk fetch before the tier was finalized");
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok =
            diskTier_->readRow(key, shard.scratch.data());
        const double dt = secondsSince(t0);
        RECSTACK_CHECK(ok, "row " << row << " of table '"
                                  << t.info.name
                                  << "' missing from the disk tier");
        ++c.diskFetches;
        c.bytesFromDisk += row_bytes;
        c.diskSeconds += dt;
        ++shard.diskCosts[diskCostBucket(dt)];
        if (config_.disk.promoteThreshold > 0) {
            admitLocked(shard, key, row_bytes);
        }
        shard.cache->insert(key, shard.scratch.data(), row_bytes,
                            &c.evictions);
        return shard.scratch.data();
    }
    // Simulated far tier: the cold tail stays in DRAM and the fetch
    // is charged modeled cost — fully deterministic.
    return charge(t.data.data<float>() + row * t.info.dim, c.farFetches,
                  c.bytesFromFar,
                  fetchCost(kFarLatencySeconds, kFarBandwidthGBs,
                            row_bytes),
                  true);
}

void
EmbeddingStore::admitLocked(Shard& shard, uint64_t key,
                            uint64_t row_bytes)
{
    const uint32_t est = shard.sketch->increment(key);
    if (est < config_.disk.promoteThreshold) {
        return;
    }
    // TinyLFU admission: a full slab takes the row only when the
    // sketch rates it hotter than the entry the slab evicts next, so
    // a cold row cannot push a hot one back to disk.
    const RowCache& slab = *shard.promoted;
    uint64_t victim = 0;
    if (slab.bytesUsed() + row_bytes > slab.capacityBytes() &&
        !(slab.peekVictim(&victim) &&
          est > shard.sketch->estimate(victim))) {
        ++shard.counters.promotionRejects;
        return;
    }
    if (shard.promoRingSize < kPromoRingSlots) {
        shard.promoRing[shard.promoRingSize++] = key;
        promoPending_.store(true, std::memory_order_release);
        prefetchCv_.notify_one();
    }
}

void
EmbeddingStore::update(int table, int64_t row, const float* values)
{
    Table& t = tableAt(table);
    ensureDiskReady();
    RECSTACK_CHECK(t.info.materialized,
                   "update on declared-only store table '"
                       << t.info.name << "'");
    RECSTACK_CHECK(row >= 0 && row < t.info.rows,
                   "update row " << row << " out of range for '"
                                 << t.info.name << "'");
    const size_t row_bytes =
        static_cast<size_t>(t.info.dim) * sizeof(float);
    Shard& shard = *shards_[shardOf(table, row)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint64_t key = rowKey(table, row);
    // Write-through under the same lock readers of this row take, so
    // a reader sees either the old or the new payload, never a blend,
    // and any cached copy is refreshed before the lock is released.
    if (diskTierActive() && row >= t.info.nearRows) {
        RECSTACK_CHECK(diskTier_ != nullptr &&
                           diskTier_->writeRow(key, values),
                       "disk write-through failed for row "
                           << row << " of '" << t.info.name << "'");
        shard.promoted->refresh(key, values, row_bytes);
    } else {
        std::memcpy(t.data.data<float>() + row * t.info.dim, values,
                    row_bytes);
    }
    shard.cache->refresh(key, values, row_bytes);
    ++shard.counters.updates;
}

void
EmbeddingStore::warmRow(int table, int64_t row)
{
    const Table& t = tableAt(table);
    if (!t.info.materialized || row < 0 || row >= t.info.rows) {
        return;
    }
    const uint64_t row_bytes =
        static_cast<uint64_t>(t.info.dim) * sizeof(float);
    Shard& shard = *shards_[shardOf(table, row)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint64_t key = rowKey(table, row);
    if (shard.cache->find(key) != nullptr) {
        return;  // already hot
    }
    const float* src = nullptr;
    if (diskTierActive() && row >= t.info.nearRows) {
        if (diskTier_ == nullptr || shard.scratch.empty()) {
            return;  // tier not finalized yet; demand path will
        }
        const float* prom = shard.promoted->find(key);
        if (prom != nullptr) {
            src = prom;
        } else if (diskTier_->readRow(key, shard.scratch.data())) {
            src = shard.scratch.data();
        } else {
            return;
        }
    } else {
        src = t.data.data<float>() + row * t.info.dim;
    }
    shard.cache->insert(key, src, row_bytes,
                        &shard.counters.evictions);
    ++shard.counters.prefetchedRows;
    // Prefetch fetch time is overlapped with compute, so it is not
    // charged to demand simSeconds / the cost histogram.
}

void
EmbeddingStore::prefetchAsync(int table, std::vector<int64_t> indices)
{
    tableAt(table);  // reject a bad id here, not on the prefetch thread
    ensureDiskReady();
    // Coalesce duplicates before queueing: a batch's index stream
    // repeats hot rows heavily, and each warmRow pays a shard-lock
    // acquisition — warming a row once per task is enough.
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());
    std::unique_lock<std::mutex> lock(prefetchMu_);
    startPrefetchThreadLocked();
    prefetchQueue_.push_back(PrefetchTask{table, std::move(indices)});
    lock.unlock();
    prefetchCv_.notify_one();
}

void
EmbeddingStore::servicePromotions()
{
    // Clear the pending flag BEFORE draining the rings: a push that
    // races with the drain re-raises it, so nothing is ever lost.
    promoPending_.store(false, std::memory_order_relaxed);
    std::array<uint64_t, kPromoRingSlots> pending;
    for (auto& shard_ptr : shards_) {
        Shard& shard = *shard_ptr;
        size_t n = 0;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            n = shard.promoRingSize;
            std::copy_n(shard.promoRing.begin(), n, pending.begin());
            shard.promoRingSize = 0;
        }
        for (size_t i = 0; i < n; ++i) {
            const uint64_t key = pending[i];
            const Table& t = tableAt(static_cast<int>(key >> 40));
            const size_t row_bytes =
                static_cast<size_t>(t.info.dim) * sizeof(float);
            std::lock_guard<std::mutex> lock(shard.mu);
            // A residency test: no slab payload is read after insert.
            if (shard.promoted->find(key) != nullptr) {
                continue;  // already promoted
            }
            if (!diskTier_->readRow(key, shard.scratch.data())) {
                continue;
            }
            // CLOCK evictions of the slab are the demotions; the
            // disk copy is authoritative, so nothing is written.
            shard.promoted->insert(key, shard.scratch.data(),
                                   row_bytes,
                                   &shard.counters.demotedRows);
            ++shard.counters.promotedRows;
        }
    }
}

void
EmbeddingStore::prefetchLoop()
{
    using namespace std::chrono_literals;
    for (;;) {
        PrefetchTask task;
        bool has_task = false;
        bool do_promo = false;
        {
            std::unique_lock<std::mutex> lock(prefetchMu_);
            const auto ready = [this] {
                return prefetchStop_ || !prefetchQueue_.empty() ||
                       (diskTierActive() &&
                        promoPending_.load(
                            std::memory_order_acquire));
            };
            if (diskTierActive()) {
                // Timed wait: promotion work can arrive without a
                // reliably-paired notify (the demand path signals
                // outside this mutex), so sweep periodically.
                prefetchCv_.wait_for(lock, 50ms, ready);
            } else {
                prefetchCv_.wait(lock, ready);
            }
            if (prefetchStop_ && prefetchQueue_.empty()) {
                return;  // stop requested with nothing pending
            }
            if (!prefetchQueue_.empty()) {
                task = std::move(prefetchQueue_.front());
                prefetchQueue_.pop_front();
                prefetchBusy_ = true;
                has_task = true;
            }
            if (diskTierActive() &&
                promoPending_.load(std::memory_order_acquire)) {
                promoBusy_ = true;
                do_promo = true;
            }
            if (!has_task && !do_promo) {
                continue;  // timed out with nothing to do
            }
        }
        if (has_task) {
            for (int64_t row : task.indices) {
                warmRow(task.table, row);
            }
        }
        if (do_promo) {
            servicePromotions();
        }
        {
            std::lock_guard<std::mutex> lock(prefetchMu_);
            prefetchBusy_ = false;
            promoBusy_ = false;
        }
        prefetchIdleCv_.notify_all();
    }
}

void
EmbeddingStore::drainPrefetch()
{
    std::unique_lock<std::mutex> lock(prefetchMu_);
    prefetchIdleCv_.wait(lock, [this] {
        return prefetchQueue_.empty() && !prefetchBusy_ &&
               !promoBusy_ &&
               !promoPending_.load(std::memory_order_acquire);
    });
}

StoreStats
EmbeddingStore::stats() const
{
    StoreStats out;
    out.perShard.reserve(shards_.size());
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        ShardCounters c = shard->counters;
        c.cacheBytesUsed = shard->cache->bytesUsed();
        out.perShard.push_back(c);
        out.total.accumulate(c);
        for (const auto& [cost, count] : shard->costs) {
            out.costHistogram[cost] += count;
        }
        for (const auto& [cost, count] : shard->diskCosts) {
            out.diskSecondsHistogram[cost] += count;
        }
    }
    out.diskTierActive = diskTierActive();
    if (diskTier_ != nullptr) {
        out.diskTier = diskTier_->stats();
    }
    return out;
}

void
EmbeddingStore::resetStats()
{
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->counters = ShardCounters{};
        shard->costs.clear();
        shard->diskCosts.clear();
    }
    if (diskTier_ != nullptr) {
        diskTier_->resetStats();
    }
}

uint64_t
EmbeddingStore::tableBytes() const
{
    // Under a disk far tier each materialized table was shrunk to
    // its near head at registration, so byteSize() is already the
    // DRAM-resident portion only.
    uint64_t n = 0;
    for (const Table& t : tables_) {
        if (t.info.materialized) {
            n += static_cast<uint64_t>(t.data.byteSize());
        }
    }
    return n;
}

uint64_t
EmbeddingStore::cacheBytesUsed() const
{
    uint64_t n = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        n += shard->cache->bytesUsed();
    }
    return n;
}

uint64_t
EmbeddingStore::cacheCapacityBytes() const
{
    return static_cast<uint64_t>(config_.numShards) *
           static_cast<uint64_t>(config_.cacheBytesPerShard);
}

uint64_t
EmbeddingStore::promotedBytesUsed() const
{
    uint64_t n = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->promoted != nullptr) {
            n += shard->promoted->bytesUsed();
        }
    }
    return n;
}

uint64_t
EmbeddingStore::diskFileBytes() const
{
    return diskTier_ != nullptr ? diskTier_->stats().fileBytes : 0;
}

uint64_t
EmbeddingStore::residentBytes() const
{
    uint64_t n = tableBytes() + cacheBytesUsed() + promotedBytesUsed();
    if (diskTier_ != nullptr) {
        n += diskTier_->stats().frameBytes;
    }
    return n;
}

double
EmbeddingStore::expectedHitRate(int table, double zipf) const
{
    const TableInfo& info = tableInfo(table);
    const uint64_t row_bytes =
        static_cast<uint64_t>(info.dim) * sizeof(float);
    const uint64_t share =
        cacheCapacityBytes() / std::max<size_t>(1, tables_.size());
    const uint64_t cache_rows = share / std::max<uint64_t>(1, row_bytes);
    const ZipfSampler sampler(static_cast<uint64_t>(info.rows), zipf);
    return sampler.cdf(cache_rows);
}

double
EmbeddingStore::farTierFraction(int table, double zipf) const
{
    const TableInfo& info = tableInfo(table);
    const uint64_t row_bytes =
        static_cast<uint64_t>(info.dim) * sizeof(float);
    const uint64_t share =
        cacheCapacityBytes() / std::max<size_t>(1, tables_.size());
    const uint64_t cache_rows = share / std::max<uint64_t>(1, row_bytes);
    // Far fetches are lookups past both the cached head and the
    // near-tier boundary.
    const uint64_t covered = std::max<uint64_t>(
        cache_rows, static_cast<uint64_t>(info.nearRows));
    const ZipfSampler sampler(static_cast<uint64_t>(info.rows), zipf);
    return 1.0 - sampler.cdf(covered);
}

void
exportStoreStats(const StoreStats& stats)
{
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("store.lookups").add(stats.total.lookups);
    reg.counter("store.hits").add(stats.total.hits);
    reg.counter("store.near_fetches").add(stats.total.nearFetches);
    reg.counter("store.far_fetches").add(stats.total.farFetches);
    reg.counter("store.disk_fetches").add(stats.total.diskFetches);
    reg.counter("store.evictions").add(stats.total.evictions);
    reg.counter("store.promoted_rows").add(stats.total.promotedRows);
    reg.counter("store.demoted_rows").add(stats.total.demotedRows);
    reg.counter("store.promotion_rejects")
        .add(stats.total.promotionRejects);
    reg.counter("store.bytes_from_disk")
        .add(stats.total.bytesFromDisk);
    reg.gauge("store.cache_bytes_used")
        .set(static_cast<double>(stats.total.cacheBytesUsed));
    reg.gauge("store.disk_seconds").set(stats.total.diskSeconds);
}

}  // namespace recstack
