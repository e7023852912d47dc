#include "fleet/placement.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "store/embedding_store.h"

namespace recstack {
namespace fleet {

PlacementView::PlacementView(const PlacementConfig& config,
                             int num_nodes,
                             const WorkloadSpec& workload)
    : config_(config), numNodes_(num_nodes)
{
    RECSTACK_CHECK(num_nodes >= 1, "need at least one node");
    RECSTACK_CHECK(config.replicationFactor >= 1,
                   "replication factor must be >= 1");
    RECSTACK_CHECK(config.remoteRowSeconds >= 0.0,
                   "remote row cost must be >= 0");

    if (config_.kind == PlacementKind::kReplicated) {
        effectiveR_ = numNodes_;
        localFraction_ = 1.0;
        remoteSeconds_ = 0.0;
        return;
    }
    effectiveR_ = std::min(config_.replicationFactor, numNodes_);
    localFraction_ = static_cast<double>(effectiveR_) /
                     static_cast<double>(numNodes_);
    double lookups = 0.0;
    for (const CategoricalFeatureSpec& feature : workload.categorical) {
        lookups += static_cast<double>(feature.lookupsPerSample);
    }
    remoteSeconds_ =
        lookups * remoteFraction() * config_.remoteRowSeconds;
}

uint64_t
PlacementView::nodeTableBytes(uint64_t one_copy_bytes) const
{
    return static_cast<uint64_t>(std::llround(
        static_cast<double>(one_copy_bytes) * localFraction_));
}

bool
PlacementView::rowIsLocal(int node, int table, int64_t row) const
{
    RECSTACK_CHECK(node >= 0 && node < numNodes_,
                   "node id out of range");
    if (config_.kind == PlacementKind::kReplicated ||
        effectiveR_ >= numNodes_) {
        return true;
    }
    const int shard = static_cast<int>(EmbeddingStore::rowShard(
        table, row, static_cast<size_t>(numNodes_)));
    // The shard lives on nodes {shard, shard+1, ..., shard+R-1 mod M}.
    const int offset = (node - shard + numNodes_) % numNodes_;
    return offset < effectiveR_;
}

}  // namespace fleet
}  // namespace recstack
