#ifndef RECSTACK_FLEET_AUTOSCALER_H_
#define RECSTACK_FLEET_AUTOSCALER_H_

/**
 * @file
 * Obs-driven fleet autoscaling against a tail-latency SLA.
 *
 * The control signal is deliberately the observability surface, not
 * simulator internals: each epoch runs the fleet at a candidate node
 * count and hands back the *merged per-node latency histogram*
 * (HistogramSnapshot::merge) — the roll-up a production metrics
 * pipeline computes — and the autoscaler reads the fleet p99 from it.
 * Same pattern as the GPU-threshold hill climber (sched/hill_climb.h):
 * measure through the histogram, decide, repeat.
 *
 * Policy: start at minNodes and walk. A violating epoch (p99 > SLA)
 * adds a node; a comfortably-passing epoch (p99 <= SLA) tries to
 * drain one, unless a previous epoch already showed the smaller fleet
 * violating (per-size memoization prevents add/drain oscillation).
 * The walk terminates at the smallest node count whose measured p99
 * meets the SLA, or reports infeasible at maxNodes.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"

namespace recstack {
namespace fleet {

/** Autoscaling policy knobs. */
struct AutoscalerConfig {
    /// Fleet p99 target (seconds), read from the merged histogram.
    double slaP99Seconds = 50e-3;
    int minNodes = 1;
    int maxNodes = 16;
    /// Epoch budget: the walk stops after this many fleet runs even
    /// if it has not converged.
    int maxEpochs = 24;
};

/** One epoch of the scaling walk. */
struct AutoscalerStep {
    int nodes = 0;
    double p99 = 0.0;
    bool violated = false;
    /// Node count the controller moved to after this epoch ( ==
    /// nodes when the walk settled here).
    int nextNodes = 0;
};

/** Outcome of the scaling walk. */
struct AutoscalerResult {
    /// Final fleet size (the smallest SLA-feasible count when
    /// feasible).
    int nodes = 0;
    /// True when the final size's measured p99 met the SLA.
    bool feasible = false;
    /// Measured fleet p99 at the final size.
    double p99 = 0.0;
    int epochsUsed = 0;
    std::vector<AutoscalerStep> history;
};

/**
 * One fleet epoch at @c nodes nodes: run the fleet and return the
 * merged per-node latency histogram (the only signal the controller
 * reads). @c epoch is the controller's epoch index, available for
 * seed variation.
 */
using FleetEpochFn =
    std::function<obs::HistogramSnapshot(int nodes, int epoch)>;

/** Walk the fleet size against the SLA. See file comment. */
AutoscalerResult autoscale(const AutoscalerConfig& config,
                           const FleetEpochFn& epoch_fn);

}  // namespace fleet
}  // namespace recstack

#endif  // RECSTACK_FLEET_AUTOSCALER_H_
