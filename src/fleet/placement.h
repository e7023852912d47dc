#ifndef RECSTACK_FLEET_PLACEMENT_H_
#define RECSTACK_FLEET_PLACEMENT_H_

/**
 * @file
 * Embedding placement across a fleet: which node holds which rows,
 * and what the misses cost.
 *
 * The paper's models are dominated by embedding-table capacity, so a
 * fleet has a real placement decision to make:
 *
 *  - kReplicated      — every node holds a full copy of every table.
 *    All lookups are local; memory scales with M.
 *  - kRowPartitioned  — rows are sharded across the fleet by the
 *    embedding store's own row-partition function
 *    (EmbeddingStore::rowShard), with each shard kept on
 *    `replicationFactor` consecutive nodes. A node holds about R/M of
 *    every table; lookups for the rest cross the network and pay
 *    `remoteRowSeconds` each.
 *
 * PlacementView turns a (config, fleet size, model workload) triple
 * into the two numbers the simulator prices with: the per-node
 * resident fraction (memory accounting) and the expected remote
 * surcharge per sample (folded into EngineConfig::
 * remoteSecondsPerSample on every node). The surcharge uses the
 * *expected* remote fraction — lookups are row-uniform across shards
 * by construction of rowShard's modulo partition — so the virtual-
 * time price stays a deterministic per-batch quantity, matching how
 * the serving node applies it.
 */

#include <cstdint>

#include "workload/batch_generator.h"

namespace recstack {
namespace fleet {

/** Where embedding rows live across the fleet. */
enum class PlacementKind {
    kReplicated,
    kRowPartitioned,
};

/** Placement policy knobs. */
struct PlacementConfig {
    PlacementKind kind = PlacementKind::kReplicated;
    /// Copies of each row shard under kRowPartitioned (>= 1; clamped
    /// to the fleet size — R >= M degenerates to full replication).
    int replicationFactor = 1;
    /// Virtual seconds one remote row fetch costs (network hop +
    /// peer read). The per-sample surcharge scales linearly in the
    /// model's pooling factor times the remote fraction.
    double remoteRowSeconds = 2e-7;
};

/** Resolved placement for one fleet size and model. */
class PlacementView
{
  public:
    /**
     * @param config    placement policy
     * @param num_nodes fleet size M (>= 1)
     * @param workload  served model's input schema (pooling factors)
     */
    PlacementView(const PlacementConfig& config, int num_nodes,
                  const WorkloadSpec& workload);

    /** Fraction of every table's rows resident on one node, (0, 1]. */
    double localRowFraction() const { return localFraction_; }

    /** Expected fraction of lookups that must leave the node. */
    double remoteFraction() const { return 1.0 - localFraction_; }

    /**
     * Expected extra virtual seconds per sample from remote-row
     * fetches: sum over sparse features of lookupsPerSample x
     * remoteFraction x remoteRowSeconds. 0 under full replication.
     */
    double remoteSecondsPerSample() const { return remoteSeconds_; }

    /** One node's resident table bytes given one dense copy's size. */
    uint64_t nodeTableBytes(uint64_t one_copy_bytes) const;

    /**
     * Whether @c node holds @c row of @c table: the row's shard
     * (EmbeddingStore::rowShard over M shards) lives on the R
     * consecutive nodes starting at the shard index (mod M). The
     * expected-fraction pricing above is exact for this rule; a test
     * cross-checks the two (tests/test_fleet.cc).
     */
    bool rowIsLocal(int node, int table, int64_t row) const;

    const PlacementConfig& config() const { return config_; }
    int numNodes() const { return numNodes_; }
    int effectiveReplication() const { return effectiveR_; }

  private:
    PlacementConfig config_;
    int numNodes_;
    int effectiveR_;
    double localFraction_;
    double remoteSeconds_;
};

}  // namespace fleet
}  // namespace recstack

#endif  // RECSTACK_FLEET_PLACEMENT_H_
