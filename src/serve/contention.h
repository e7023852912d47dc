#ifndef RECSTACK_SERVE_CONTENTION_H_
#define RECSTACK_SERVE_CONTENTION_H_

/**
 * @file
 * Occupancy -> service-time inflation coupling between the serving
 * engine and the analytical multicore co-location model.
 *
 * estimateMulticoreScaling prices what happens when k copies of an
 * inference engine share one socket: private resources scale, the
 * shared L3 is effectively partitioned, and DRAM bandwidth saturates.
 * The serving engine samples its occupancy (busy workers) at every
 * batch launch and stretches that batch's oracle latency by the
 * matching per-engine slowdown, making the threaded engine the
 * measured counterpart of the analytical scaling curve: embedding-
 * dominated models inflate hard, FC-dominated models barely notice.
 */

#include <vector>

#include "core/characterizer.h"
#include "sched/query_scheduler.h"

namespace recstack {

/**
 * Per-occupancy service-time inflation factors, index k-1 for k busy
 * workers. Factors are normalized so one busy worker is exactly 1.0
 * (a one-worker node prices service at exactly the grid latency). GPU
 * platforms return all-ones: co-located workers there model
 * independent devices, not a shared socket.
 *
 * @param single      characterization of one engine running alone at
 *                    a representative (typically max-batch) operating
 *                    point
 * @param platform    the serving platform
 * @param num_workers highest occupancy to price (>= 1)
 */
std::vector<double> contentionSlowdowns(const RunResult& single,
                                        const Platform& platform,
                                        int num_workers);

/**
 * A serving node's factors: prewarms @c scheduler's latency grid for
 * (model, platform), then prices contentionSlowdowns at the largest
 * grid batch within @c max_batch, or returns all ones when
 * @c model_contention is off. ServingNode and the fleet's node twin
 * both call this, so they price service identically.
 */
std::vector<double> nodeSlowdowns(QueryScheduler* scheduler, ModelId model,
                                  size_t platform_idx, int64_t max_batch,
                                  int num_workers, bool model_contention);

/** One batch's price on a node's CPU workers. */
struct BatchPrice {
    double factor = 1.0;   ///< contention stretch applied
    double seconds = 0.0;  ///< virtual service seconds
};

/**
 * Price one batch of @c batch samples launched while @c busy workers
 * are busy: the grid latency stretched by the factor for
 * min(busy, factors.size()) workers, plus the placement surcharge
 * (@c remote_seconds_per_sample per sample). Remote-row fetches cross
 * the network, not the shared socket, so the surcharge adds after the
 * stretch. ServingNode and the fleet's node twin both call this.
 */
BatchPrice priceBatch(QueryScheduler* scheduler, ModelId model,
                      size_t platform_idx,
                      const std::vector<double>& factors, int busy,
                      int64_t batch, double remote_seconds_per_sample);

}  // namespace recstack

#endif  // RECSTACK_SERVE_CONTENTION_H_
