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

}  // namespace recstack

#endif  // RECSTACK_SERVE_CONTENTION_H_
