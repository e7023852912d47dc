#ifndef RECSTACK_CORE_SWEEP_H_
#define RECSTACK_CORE_SWEEP_H_

/**
 * @file
 * Sweep utilities: memoized model x platform x batch-size grids and
 * the paper's batch-size axes.
 */

#include <map>
#include <tuple>
#include <vector>

#include "core/characterizer.h"

namespace recstack {

/** Batch sizes 1..16384 as plotted in Figs. 3-5 (powers of four). */
std::vector<int64_t> paperBatchSizes();

/** The four batch sizes of the Fig. 6 operator-breakdown panels. */
std::vector<int64_t> breakdownBatchSizes();

/** Memoized characterization grid over a fixed platform list. */
class SweepCache
{
  public:
    SweepCache(std::vector<Platform> platforms, ModelOptions opts = {},
               uint64_t seed = 42);

    const RunResult& get(ModelId model, size_t platform_idx,
                         int64_t batch);

    /**
     * Compute every missing (model, batch, platform) point of the
     * models x batches x platforms() grid, so later get() calls are
     * lookups. Each (model, batch) is lowered serially (the profiling
     * workspace is not thread-safe); the points are then simulated on
     * the intra-op pool, longest first. Results are identical to
     * get()'s at any width.
     */
    void fill(const std::vector<ModelId>& models,
              const std::vector<int64_t>& batches);

    const std::vector<Platform>& platforms() const { return platforms_; }
    Characterizer& characterizer() { return char_; }

    /**
     * The memoized arena memory plan for one (model, batch) grid
     * point (platform-independent; see Characterizer::memoryPlan).
     */
    const NetPlan& memoryPlan(ModelId model, int64_t batch)
    {
        return char_.memoryPlan(model, batch);
    }

    /** Speedup of platform_idx over the baseline (index 0). */
    double speedupOverBaseline(ModelId model, size_t platform_idx,
                               int64_t batch);

  private:
    std::vector<Platform> platforms_;
    Characterizer char_;
    std::map<std::tuple<ModelId, size_t, int64_t>, RunResult> cache_;
};

}  // namespace recstack

#endif  // RECSTACK_CORE_SWEEP_H_
