/**
 * @file
 * Extension: cluster-scale serving. The paper characterizes one
 * machine; production recommendation inference runs fleets of them
 * behind a load balancer (DeepRecSys, arXiv 2001.02772). This bench
 * composes M analytic ServingNode twins behind the fleet router and
 * measures the cluster-level knobs the single-node stack cannot see:
 *
 *  1. capacity under a p99 SLA as the fleet grows — more nodes must
 *     never buy less SLA-feasible throughput;
 *  2. routing policy vs a Zipf-skewed user stream at the knee —
 *     sticky consistent hashing concentrates hot users and inflates
 *     the tail, power-of-two-choices holds round-robin's tail;
 *  3. embedding placement — replicating the tables R ways prices
 *     fewer remote row fetches per sample but costs R copies of the
 *     table bytes per fleet;
 *  4. obs-driven autoscaling — the controller walks the fleet size
 *     against the p99 read from the *merged* per-node latency
 *     histograms and must settle on a feasible size within its epoch
 *     budget, and that merged tail must agree with the exact pooled
 *     percentile to within one histogram bucket.
 */

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet_sim.h"

using namespace recstack;
using namespace recstack::bench;
using namespace recstack::fleet;

namespace {

constexpr int kWorkersPerNode = 2;
constexpr int64_t kMaxBatch = 64;
constexpr double kWindow = 1e-3;
constexpr double kSimSeconds = 0.3;

FleetConfig
baseConfig(int nodes)
{
    FleetConfig cfg;
    cfg.numNodes = nodes;
    cfg.workersPerNode = kWorkersPerNode;
    cfg.maxBatch = kMaxBatch;
    cfg.maxWaitSeconds = kWindow;
    cfg.simSeconds = kSimSeconds;
    return cfg;
}

TrafficConfig
baseTraffic(double qps)
{
    TrafficConfig traffic;
    traffic.baseQps = qps;
    traffic.numUsers = 2000000;
    traffic.userZipf = 0.9;
    traffic.seed = 42;
    return traffic;
}

}  // namespace

int
main()
{
    banner("EXT-FLEET",
           "Cluster-scale serving: routing, placement, autoscaling");

    ModelOptions opts;
    opts.tableScale = 0.05;
    SweepCache sweep(allPlatforms(), opts);
    QueryScheduler sched(&sweep, {1, 16, 64, 256, 1024});
    const ModelId id = ModelId::kRM1;
    FleetSimulator sim(&sched, id, kBdw);

    // Per-node capacity anchor (replicated store: no surcharge) and
    // the SLA every study below is judged against: 3x the one-node
    // half-load tail.
    const double cap_node =
        kWorkersPerNode * static_cast<double>(kMaxBatch) /
        sched.latency(id, kBdw, kMaxBatch);
    const FleetResult half = sim.simulate(
        baseConfig(1), baseTraffic(0.5 * cap_node));
    const double sla = 3.0 * half.aggregate.p99Latency;

    // -- 1. capacity at the SLA vs fleet size ------------------------
    std::printf("\nRM1 on %s nodes (x%d workers), SLA p99 <= %.2f ms, "
                "p2c routing:\n\n",
                shortPlatformName(kBdw), kWorkersPerNode, sla * 1e3);
    TextTable cap_table({"nodes", "capacity (qps)", "p99 at cap",
                         "imbalance"});
    const std::vector<int> sizes = {1, 2, 4, 8};
    const std::vector<double> fractions = {0.3, 0.5, 0.7,
                                           0.85, 1.0, 1.15};
    std::vector<double> capacities;
    for (int nodes : sizes) {
        double capacity = 0.0;
        double p99_at_cap = 0.0;
        double imbalance = 1.0;
        for (double f : fractions) {
            const double rate = f * nodes * cap_node;
            const FleetResult r =
                sim.simulate(baseConfig(nodes), baseTraffic(rate));
            if (r.aggregate.p99Latency <= sla && rate > capacity) {
                capacity = rate;
                p99_at_cap = r.aggregate.p99Latency;
                imbalance = r.routedImbalance;
            }
        }
        capacities.push_back(capacity);
        cap_table.addRow({std::to_string(nodes),
                          TextTable::fmt(capacity, 0),
                          TextTable::fmtSeconds(p99_at_cap),
                          TextTable::fmt(imbalance, 3)});
    }
    std::printf("%s\n", cap_table.render().c_str());
    bool capacity_monotone = true;
    for (size_t i = 1; i < capacities.size(); ++i) {
        capacity_monotone =
            capacity_monotone && capacities[i] >= capacities[i - 1];
    }

    // -- 2. routing policy at the knee under Zipf skew ---------------
    const int kFleet = 4;
    const double knee = 0.95 * kFleet * cap_node;
    std::printf("routing policies at %.0f qps (0.95x capacity), "
                "Zipf(0.9) users:\n\n", knee);
    TextTable pol_table({"policy", "p99", "merged p99", "imbalance"});
    const RoutePolicy policies[] = {RoutePolicy::kRoundRobin,
                                    RoutePolicy::kConsistentHash,
                                    RoutePolicy::kPowerOfTwo};
    FleetResult by_policy[3];
    for (int p = 0; p < 3; ++p) {
        FleetConfig cfg = baseConfig(kFleet);
        cfg.policy = policies[p];
        by_policy[p] = sim.simulate(cfg, baseTraffic(knee));
        pol_table.addRow(
            {routePolicyName(policies[p]),
             TextTable::fmtSeconds(by_policy[p].aggregate.p99Latency),
             TextTable::fmtSeconds(by_policy[p].mergedP99),
             TextTable::fmt(by_policy[p].routedImbalance, 3)});
    }
    std::printf("%s\n", pol_table.render().c_str());
    const FleetResult& rr = by_policy[0];
    const FleetResult& hash = by_policy[1];
    const FleetResult& p2c = by_policy[2];

    // -- 3. placement: replication factor vs remote surcharge --------
    std::printf("embedding placement on %d nodes:\n\n", kFleet);
    TextTable place_table({"placement", "remote/sample",
                           "node table MB", "p99"});
    std::vector<double> surcharges;
    for (int repl = 1; repl <= kFleet; repl *= 2) {
        FleetConfig cfg = baseConfig(kFleet);
        cfg.placement.kind = PlacementKind::kRowPartitioned;
        cfg.placement.replicationFactor = repl;
        const FleetResult r =
            sim.simulate(cfg, baseTraffic(0.6 * kFleet * cap_node));
        surcharges.push_back(r.remoteSecondsPerSample);
        place_table.addRow(
            {"partitioned R=" + std::to_string(repl),
             TextTable::fmtSeconds(r.remoteSecondsPerSample),
             TextTable::fmt(static_cast<double>(r.nodeTableBytes) /
                                (1024.0 * 1024.0), 1),
             TextTable::fmtSeconds(r.aggregate.p99Latency)});
    }
    std::printf("%s\n", place_table.render().c_str());
    bool surcharge_decreasing = true;
    for (size_t i = 1; i < surcharges.size(); ++i) {
        surcharge_decreasing =
            surcharge_decreasing && surcharges[i] < surcharges[i - 1];
    }

    // -- 4. obs-driven autoscaling -----------------------------------
    AutoscalerConfig asc;
    asc.slaP99Seconds = sla;
    asc.minNodes = 1;
    asc.maxNodes = 12;
    asc.maxEpochs = 12;
    const double offered = 0.85 * kFleet * cap_node;
    const AutoscalerResult scaled =
        autoscale(asc, [&](int n, int /*epoch*/) {
            return sim.simulate(baseConfig(n), baseTraffic(offered))
                .mergedHistogram;
        });
    std::printf("autoscaler at %.0f qps (SLA p99 <= %.2f ms):\n\n",
                offered, sla * 1e3);
    TextTable walk({"epoch", "nodes", "fleet p99 (merged)", "SLA"});
    for (size_t i = 0; i < scaled.history.size(); ++i) {
        const AutoscalerStep& s = scaled.history[i];
        walk.addRow({std::to_string(i + 1), std::to_string(s.nodes),
                     TextTable::fmtSeconds(s.p99),
                     s.violated ? "MISS" : "ok"});
    }
    std::printf("%ssettled: %d nodes after %d epochs (%s)\n",
                walk.render().c_str(), scaled.nodes, scaled.epochsUsed,
                scaled.feasible ? "feasible" : "INFEASIBLE");

    const double bucket = (p2c.mergedHistogram.hi -
                           p2c.mergedHistogram.lo) /
                          static_cast<double>(
                              p2c.mergedHistogram.counts.size());

    checkHeader();
    check(capacity_monotone,
          "capacity under the p99 SLA is non-decreasing in fleet size");
    check(p2c.aggregate.p99Latency <=
            1.05 * rr.aggregate.p99Latency,
          "power-of-two-choices holds round-robin's tail at the knee "
          "(within 5%)");
    check(hash.routedImbalance > rr.routedImbalance,
          "sticky consistent hashing concentrates Zipf-skewed users "
          "(routing imbalance above round-robin's)");
    check(surcharge_decreasing,
          "replicating embedding rows monotonically cuts the remote "
          "fetch surcharge per sample");
    check(scaled.feasible && scaled.epochsUsed <= asc.maxEpochs,
          "the autoscaler settles on an SLA-feasible fleet size "
          "within its epoch budget");
    check(std::fabs(p2c.mergedP99 - p2c.aggregate.p99Latency) <=
            bucket,
          "the merged per-node histogram p99 agrees with the exact "
          "pooled p99 within one bucket");
    return recstack::bench::exitStatus();
}
