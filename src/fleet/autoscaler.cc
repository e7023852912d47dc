#include "fleet/autoscaler.h"

#include <map>

#include "common/logging.h"

namespace recstack {
namespace fleet {
namespace {

/// Drain only when p99 <= kDrainHeadroom * SLA: a fleet barely inside
/// the SLA is left alone rather than probed downward.
constexpr double kDrainHeadroom = 0.8;

}  // namespace

AutoscalerResult
autoscale(const AutoscalerConfig& config, const FleetEpochFn& epoch_fn)
{
    RECSTACK_CHECK(config.slaP99Seconds > 0.0, "SLA must be > 0");
    RECSTACK_CHECK(config.minNodes >= 1, "minNodes must be >= 1");
    RECSTACK_CHECK(config.maxNodes >= config.minNodes,
                   "maxNodes must be >= minNodes");
    RECSTACK_CHECK(config.maxEpochs >= 1, "need at least one epoch");
    RECSTACK_CHECK(epoch_fn != nullptr, "need an epoch function");

    AutoscalerResult result;
    std::map<int, bool> violatedAt;  // node count -> measured verdict
    int nodes = config.minNodes;
    for (int epoch = 0; epoch < config.maxEpochs; ++epoch) {
        const obs::HistogramSnapshot hist = epoch_fn(nodes, epoch);
        const double p99 = hist.percentile(0.99);
        const bool violated = p99 > config.slaP99Seconds;
        violatedAt[nodes] = violated;

        AutoscalerStep step;
        step.nodes = nodes;
        step.p99 = p99;
        step.violated = violated;

        result.nodes = nodes;
        result.feasible = !violated;
        result.p99 = p99;
        result.epochsUsed = epoch + 1;

        int next = nodes;
        if (violated) {
            if (nodes < config.maxNodes) {
                next = nodes + 1;  // scale up
            }
        } else if (nodes > config.minNodes &&
                   p99 <= kDrainHeadroom * config.slaP99Seconds) {
            // Plenty of headroom: probe one node smaller, unless that
            // size is already known to violate (memoized verdicts
            // keep the walk from oscillating).
            auto it = violatedAt.find(nodes - 1);
            if (it == violatedAt.end() || !it->second) {
                next = nodes - 1;
            }
        }
        step.nextNodes = next;
        result.history.push_back(step);
        if (next == nodes) {
            break;  // settled (feasible hold, or pinned at a bound)
        }
        nodes = next;
    }
    return result;
}

}  // namespace fleet
}  // namespace recstack
