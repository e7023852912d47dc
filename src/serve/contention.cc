#include "serve/contention.h"

#include <algorithm>

#include "common/logging.h"
#include "uarch/multicore.h"

namespace recstack {

std::vector<double>
contentionSlowdowns(const RunResult& single, const Platform& platform,
                    int num_workers)
{
    RECSTACK_CHECK(num_workers >= 1, "need at least one worker");
    std::vector<double> factors(static_cast<size_t>(num_workers), 1.0);
    if (platform.kind != PlatformKind::kCpu ||
        single.counters.cycles <= 0.0) {
        return factors;
    }
    const std::vector<ScalingPoint> points = estimateMulticoreScaling(
        single.counters, platform.cpu, num_workers);
    // Normalize by the 1-core point: the model's cycle components need
    // not sum exactly to the measured cycles, and a 1-worker node must
    // price service at exactly the characterization-grid latency.
    const double base = points.front().perEngineSlowdown;
    for (int k = 1; k <= num_workers; ++k) {
        factors[static_cast<size_t>(k - 1)] =
            points[static_cast<size_t>(k - 1)].perEngineSlowdown / base;
    }
    return factors;
}

std::vector<double>
nodeSlowdowns(QueryScheduler* scheduler, ModelId model,
              size_t platform_idx, int64_t max_batch, int num_workers,
              bool model_contention)
{
    int64_t ref_batch = scheduler->batchGrid().front();
    for (int64_t b : scheduler->batchGrid()) {
        scheduler->latency(model, platform_idx, b);
        if (b <= max_batch) {
            ref_batch = b;
        }
    }
    if (!model_contention) {
        return std::vector<double>(static_cast<size_t>(num_workers), 1.0);
    }
    SweepCache* sweep = scheduler->sweep();
    return contentionSlowdowns(sweep->get(model, platform_idx, ref_batch),
                               sweep->platforms()[platform_idx],
                               num_workers);
}

BatchPrice
priceBatch(QueryScheduler* scheduler, ModelId model, size_t platform_idx,
           const std::vector<double>& factors, int busy, int64_t batch,
           double remote_seconds_per_sample)
{
    const double base = scheduler->latency(model, platform_idx, batch);
    const int k = std::min(busy, static_cast<int>(factors.size()));
    BatchPrice price;
    price.factor = factors[static_cast<size_t>(k - 1)];
    price.seconds = base * price.factor +
                    static_cast<double>(batch) * remote_seconds_per_sample;
    return price;
}

}  // namespace recstack
