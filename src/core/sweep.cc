#include "core/sweep.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"

namespace recstack {

std::vector<int64_t>
paperBatchSizes()
{
    return {1, 4, 16, 64, 256, 1024, 4096, 16384};
}

std::vector<int64_t>
breakdownBatchSizes()
{
    return {4, 64, 1024, 16384};
}

SweepCache::SweepCache(std::vector<Platform> platforms, ModelOptions opts,
                       uint64_t seed)
    : platforms_(std::move(platforms)), char_(std::move(opts), seed)
{
    RECSTACK_CHECK(!platforms_.empty(), "sweep needs platforms");
}

const RunResult&
SweepCache::get(ModelId model, size_t platform_idx, int64_t batch)
{
    RECSTACK_CHECK(platform_idx < platforms_.size(),
                   "platform index out of range");
    const auto key = std::make_tuple(model, platform_idx, batch);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        it = cache_.emplace(
            key, char_.run(model, platforms_[platform_idx], batch))
                 .first;
    }
    return it->second;
}

void
SweepCache::fill(const std::vector<ModelId>& models,
                 const std::vector<int64_t>& batches)
{
    // Lower each (model, batch) with a missing point serially: the
    // profiling workspace is not thread-safe.
    struct Lowered {
        std::vector<KernelProfile> profiles;
        uint64_t inputBytes = 0;
        size_t inputBlobs = 0;
    };
    std::map<std::pair<ModelId, int64_t>, Lowered> lowered;
    std::vector<std::tuple<ModelId, size_t, int64_t>> missing;
    for (ModelId model : models) {
        for (int64_t batch : batches) {
            for (size_t p = 0; p < platforms_.size(); ++p) {
                if (cache_.count({model, p, batch}) != 0) {
                    continue;
                }
                auto [it, fresh] = lowered.try_emplace({model, batch});
                if (fresh) {
                    it->second.profiles =
                        char_.profiles(model, batch, &it->second.inputBytes,
                                       &it->second.inputBlobs);
                }
                missing.emplace_back(model, p, batch);
            }
        }
    }

    // Longest first (kernel count x batch), so the pool does not end
    // waiting on one large point started last.
    auto cost = [&](const auto& key) {
        const auto& [model, p, batch] = key;
        return static_cast<double>(
                   lowered.at({model, batch}).profiles.size()) *
               static_cast<double>(batch);
    };
    std::stable_sort(missing.begin(), missing.end(),
                     [&](const auto& a, const auto& b) {
                         return cost(a) > cost(b);
                     });

    std::vector<RunResult> results(missing.size());
    std::atomic<size_t> next{0};
    parallelFor(0, intraOpThreads(), 1, [&](int64_t, int64_t) {
        for (size_t i = next++; i < missing.size(); i = next++) {
            const auto& [model, p, batch] = missing[i];
            const Lowered& l = lowered.at({model, batch});
            results[i] = simulateProfiles(l.profiles, platforms_[p], model,
                                          batch, l.inputBytes,
                                          l.inputBlobs, char_.seed());
        }
    });
    for (size_t i = 0; i < missing.size(); ++i) {
        cache_.emplace(missing[i], std::move(results[i]));
    }
}

double
SweepCache::speedupOverBaseline(ModelId model, size_t platform_idx,
                                int64_t batch)
{
    const double base = get(model, 0, batch).seconds;
    const double other = get(model, platform_idx, batch).seconds;
    return other > 0.0 ? base / other : 0.0;
}

}  // namespace recstack
