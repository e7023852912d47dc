#include "pim/pim_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "store/embedding_store.h"

namespace recstack {

double
PimPartition::imbalance() const
{
    if (rows <= 0 || rowsPerRank.empty()) {
        return 1.0;
    }
    const int64_t max =
        *std::max_element(rowsPerRank.begin(), rowsPerRank.end());
    const double mean = static_cast<double>(rows) /
                        static_cast<double>(rowsPerRank.size());
    return mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
}

PimPartition
pimPartitionRows(int table, int64_t rows, int ranks)
{
    PimPartition p;
    p.rows = rows;
    p.rowsPerRank.assign(static_cast<size_t>(std::max(1, ranks)), 0);
    // The modulo shard map assigns contiguous row runs round-robin,
    // so per-rank counts follow in closed form from the first row's
    // shard — no per-row loop over multi-million-row tables.
    const size_t n = p.rowsPerRank.size();
    if (rows <= 0) {
        return p;
    }
    const size_t first =
        EmbeddingStore::rowShard(table, 0, n);
    for (size_t r = 0; r < n; ++r) {
        // Rows hitting rank r are those with (row + first) % n == r.
        const int64_t offset =
            static_cast<int64_t>((r + n - first) % n);
        p.rowsPerRank[r] =
            offset < rows ? (rows - offset - 1) / static_cast<int64_t>(n) + 1
                          : 0;
    }
    return p;
}

PimModel::PimModel(const PimConfig& cfg) : cfg_(cfg) {}

bool
PimModel::offloadable(const KernelProfile& kp)
{
    return isSparseLengthsReduce(kp.opType);
}

int
PimModel::regionTableId(const std::string& region)
{
    auto it = regionIds_.find(region);
    if (it != regionIds_.end()) {
        return it->second;
    }
    const int id = static_cast<int>(regionIds_.size());
    regionIds_.emplace(region, id);
    return id;
}

double
PimModel::regionImbalance(const std::string& region, int64_t rows)
{
    auto it = imbalanceCache_.find(region);
    if (it != imbalanceCache_.end()) {
        return it->second;
    }
    const double imb =
        pimPartitionRows(regionTableId(region), rows, cfg_.ranks)
            .imbalance();
    imbalanceCache_.emplace(region, imb);
    return imb;
}

namespace {

/** Latency + bandwidth term of one host<->DPU copy; free when empty. */
double
xferSeconds(uint64_t bytes, const PimConfig& cfg)
{
    if (bytes == 0) {
        return 0.0;
    }
    return cfg.xferLatencySec +
           static_cast<double>(bytes) / (cfg.xferGBs * 1e9);
}

}  // namespace

PimOpTime
PimModel::opTime(const KernelProfile& kp)
{
    PimOpTime t;
    t.opType = kp.opType;
    t.opName = kp.opName;

    // Map the profile's streams onto the offload's three byte flows.
    // src/ops/embedding.cc lowers SLS as: sequential reads = indices
    // and lengths (and per-lookup weights for SLWS), random reads =
    // table rows (possibly split into store:cache:/near:/far: regions
    // when a store is attached — all still DPU-resident traffic), one
    // write stream = the pooled output.
    double weightedImbalance = 0.0;
    uint64_t largestRow = 0;
    for (const MemStream& s : kp.streams) {
        if (s.isWrite) {
            t.downloadBytes += s.totalBytes();
        } else if (s.pattern == AccessPattern::kRandom) {
            t.tableBytes += s.totalBytes();
            t.lookups += s.accesses;
            largestRow = std::max(largestRow, s.chunkBytes);
            const int64_t rows =
                s.chunkBytes > 0
                    ? static_cast<int64_t>(s.footprintBytes /
                                           s.chunkBytes)
                    : 0;
            weightedImbalance +=
                static_cast<double>(s.totalBytes()) *
                regionImbalance(s.region, rows);
        } else {
            t.uploadBytes += s.totalBytes();
        }
    }
    const double imbalance =
        t.tableBytes > 0
            ? weightedImbalance / static_cast<double>(t.tableBytes)
            : 1.0;

    // WRAM working-set constraint: each streaming tasklet keeps one
    // row buffer resident, so wide rows cap concurrency below the
    // configured tasklet count; the pipeline only saturates MRAM once
    // ~pipelineFillTasklets are active.
    const uint64_t wramTasklets =
        largestRow > 0
            ? std::max<uint64_t>(1, cfg_.wramBytesPerDpu / largestRow)
            : static_cast<uint64_t>(cfg_.taskletsPerDpu);
    const int activeTasklets = static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(std::max(1, cfg_.taskletsPerDpu)),
        wramTasklets));
    const double taskletFill =
        std::min(1.0, static_cast<double>(activeTasklets) /
                          static_cast<double>(std::max(
                              1, cfg_.pipelineFillTasklets)));

    const double aggregateGBs = static_cast<double>(cfg_.ranks) *
                                cfg_.rankInternalGBs * taskletFill;
    t.dispatchSeconds = cfg_.hostDispatchSec;
    t.uploadSeconds = xferSeconds(t.uploadBytes, cfg_);
    t.dpuSeconds =
        aggregateGBs > 0.0
            ? static_cast<double>(t.tableBytes) * imbalance /
                  (aggregateGBs * 1e9)
            : 0.0;
    t.downloadSeconds = xferSeconds(t.downloadBytes, cfg_);
    t.seconds = t.dispatchSeconds + t.uploadSeconds + t.dpuSeconds +
                t.downloadSeconds;
    return t;
}

PimRunResult
PimModel::simulateOffload(const std::vector<KernelProfile>& kernels)
{
    PimRunResult r;
    for (const KernelProfile& kp : kernels) {
        if (!offloadable(kp)) {
            continue;
        }
        PimOpTime t = opTime(kp);
        r.offloadSeconds += t.seconds;
        r.dispatchSeconds += t.dispatchSeconds;
        r.uploadSeconds += t.uploadSeconds;
        r.dpuSeconds += t.dpuSeconds;
        r.downloadSeconds += t.downloadSeconds;
        r.offloadedOps += 1;
        r.uploadBytes += t.uploadBytes;
        r.tableBytes += t.tableBytes;
        r.downloadBytes += t.downloadBytes;
        r.lookups += t.lookups;
        r.opTimes.push_back(std::move(t));
    }
    return r;
}

double
PimModel::transferBoundSeconds(const KernelProfile& kp) const
{
    uint64_t up = 0;
    uint64_t down = 0;
    for (const MemStream& s : kp.streams) {
        if (s.isWrite) {
            down += s.totalBytes();
        } else if (s.pattern != AccessPattern::kRandom) {
            up += s.totalBytes();
        }
    }
    return cfg_.hostDispatchSec + xferSeconds(up, cfg_) +
           xferSeconds(down, cfg_);
}

void
exportPimStats(const PimRunResult& r)
{
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("pim.offloaded_ops").add(r.offloadedOps);
    reg.counter("pim.offloaded_lookups").add(r.lookups);
    reg.counter("pim.upload_bytes").add(r.uploadBytes);
    reg.counter("pim.download_bytes").add(r.downloadBytes);
    reg.counter("pim.table_bytes").add(r.tableBytes);
    reg.gauge("pim.transfer_fraction").set(r.transferFraction());
    reg.histogram("pim.offload_seconds", 0.0, 0.1, 200)
        .record(r.offloadSeconds);
}

}  // namespace recstack
