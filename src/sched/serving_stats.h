#ifndef RECSTACK_SCHED_SERVING_STATS_H_
#define RECSTACK_SCHED_SERVING_STATS_H_

/**
 * @file
 * ServingStats: what a serving run measured, shared by the threaded
 * serving node (serve/serving_node.h), its accelerator lanes and the
 * fleet simulator (fleet/fleet_sim.h), plus the one latency reduction
 * they all use.
 */

#include <cstdint>
#include <vector>

namespace recstack {

/** Measured behaviour of a serving node, lane or fleet. */
struct ServingStats {
    uint64_t samplesArrived = 0;
    uint64_t samplesServed = 0;
    /// Samples that arrived but were never served. Every serving path
    /// drains its queue to the end, so this is always 0; kept so
    /// callers can assert conservation.
    uint64_t droppedSamples = 0;
    uint64_t batchesServed = 0;
    double meanLatency = 0.0;   ///< arrival -> completion, seconds
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanBatch = 0.0;
    double utilization = 0.0;   ///< fraction of time the engine is busy
    /// Demanded service time over the arrival window (busy seconds /
    /// simSeconds), *unclamped*: values above 1 expose over-saturated
    /// configurations that the clamped utilization hides.
    double offeredLoad = 0.0;
    double throughputQps = 0.0; ///< served samples / simulated time
};

/**
 * Reduce completed-sample latencies into ServingStats mean/tail
 * fields (sorts @c latencies in place; leaves the stats untouched
 * when empty). Shared by the serving node, its lanes and the fleet
 * simulator so every layer's percentile convention is
 * percentileOfSorted's.
 */
void fillLatencyStats(std::vector<double>& latencies,
                      ServingStats* stats);

/**
 * Fill every derived field of @c stats for @c servers servers that
 * were busy @c busy_seconds in total, given samplesServed and
 * batchesServed: meanBatch, utilization over @c horizon (clamped to
 * 1), offeredLoad over the @c sim_seconds arrival window (unclamped),
 * throughput over @c horizon, and the latency fields (sorting
 * @c latencies in place).
 */
void fillServingStats(std::vector<double>& latencies, double busy_seconds,
                      double servers, double horizon, double sim_seconds,
                      ServingStats* stats);

}  // namespace recstack

#endif  // RECSTACK_SCHED_SERVING_STATS_H_
