/**
 * @file
 * Fleet-layer tests: hash-ring key movement, power-of-two-choices
 * properties, placement accounting, the analytic node twin's
 * differential agreement with the real threaded ServingNode, merged
 * histogram tails, autoscaler convergence, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "fleet/autoscaler.h"
#include "fleet/fleet_sim.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "serve/serving_node.h"

namespace recstack {
namespace fleet {
namespace {

// ---------------------------------------------------------------------------
// HashRing / Router properties
// ---------------------------------------------------------------------------

TEST(HashRing, AddMovesAtMostOneOverMKeys)
{
    const int kNodes = 8;
    const int kKeys = 20000;
    HashRing ring(1024);
    for (int n = 0; n < kNodes; ++n) {
        ring.addNode(n);
    }
    std::vector<int> before(kKeys);
    for (int k = 0; k < kKeys; ++k) {
        before[static_cast<size_t>(k)] =
            ring.nodeFor(static_cast<uint64_t>(k));
    }

    ring.addNode(kNodes);
    int moved = 0;
    for (int k = 0; k < kKeys; ++k) {
        const int now = ring.nodeFor(static_cast<uint64_t>(k));
        if (now != before[static_cast<size_t>(k)]) {
            ++moved;
            // A key that moves can only move *to* the new node: the
            // arcs of the existing nodes only shrink.
            EXPECT_EQ(now, kNodes);
        }
    }
    EXPECT_GT(moved, 0);
    EXPECT_LE(moved, kKeys / kNodes);
}

TEST(HashRing, RemoveMovesOnlyTheRemovedNodesKeys)
{
    const int kNodes = 8;
    const int kKeys = 20000;
    HashRing ring(1024);
    for (int n = 0; n < kNodes; ++n) {
        ring.addNode(n);
    }
    std::vector<int> before(kKeys);
    for (int k = 0; k < kKeys; ++k) {
        before[static_cast<size_t>(k)] =
            ring.nodeFor(static_cast<uint64_t>(k));
    }

    const int removed = 3;
    ring.removeNode(removed);
    EXPECT_EQ(ring.numNodes(), kNodes - 1);
    int moved = 0;
    for (int k = 0; k < kKeys; ++k) {
        const int now = ring.nodeFor(static_cast<uint64_t>(k));
        if (before[static_cast<size_t>(k)] == removed) {
            ++moved;
            EXPECT_NE(now, removed);
        } else {
            // Keys not owned by the removed node never move.
            EXPECT_EQ(now, before[static_cast<size_t>(k)]);
        }
    }
    EXPECT_GT(moved, 0);
    EXPECT_LE(moved, kKeys / (kNodes - 1));
}

TEST(HashRing, AddThenRemoveIsIdentity)
{
    const int kNodes = 5;
    const int kKeys = 5000;
    HashRing ring(256);
    for (int n = 0; n < kNodes; ++n) {
        ring.addNode(n);
    }
    std::vector<int> before(kKeys);
    for (int k = 0; k < kKeys; ++k) {
        before[static_cast<size_t>(k)] =
            ring.nodeFor(static_cast<uint64_t>(k));
    }
    ring.addNode(kNodes);
    ring.removeNode(kNodes);
    for (int k = 0; k < kKeys; ++k) {
        EXPECT_EQ(ring.nodeFor(static_cast<uint64_t>(k)),
                  before[static_cast<size_t>(k)]);
    }
}

TEST(Router, PickShallowerNeverPicksTheDeeperQueue)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const int a = static_cast<int>(rng.nextBounded(16));
        int b = static_cast<int>(rng.nextBounded(15));
        if (b >= a) {
            ++b;
        }
        const double da = static_cast<double>(rng.nextBounded(100));
        const double db = static_cast<double>(rng.nextBounded(100));
        const int pick = Router::pickShallower(a, da, b, db);
        const double picked = pick == a ? da : db;
        EXPECT_LE(picked, da);
        EXPECT_LE(picked, db);
    }
    // Ties go to the first sample (deterministic rule).
    EXPECT_EQ(Router::pickShallower(2, 5.0, 9, 5.0), 2);
}

TEST(Router, PowerOfTwoAvoidsAPermanentlyDeepNode)
{
    const int kNodes = 6;
    Router router(RoutePolicy::kPowerOfTwo, kNodes, 11);
    std::vector<double> depths(kNodes, 0.0);
    depths[4] = 1e9;  // node 4 is always the deeper of any pair
    for (int i = 0; i < 5000; ++i) {
        EXPECT_NE(router.route(static_cast<uint64_t>(i), depths), 4);
    }
}

TEST(Router, RoundRobinIsBalanced)
{
    const int kNodes = 7;
    const int kQueries = 7000;
    Router router(RoutePolicy::kRoundRobin, kNodes, 3);
    std::vector<int> counts(kNodes, 0);
    std::vector<double> depths(kNodes, 0.0);
    for (int i = 0; i < kQueries; ++i) {
        ++counts[static_cast<size_t>(
            router.route(static_cast<uint64_t>(i * 977), depths))];
    }
    for (int n = 0; n < kNodes; ++n) {
        EXPECT_EQ(counts[static_cast<size_t>(n)], kQueries / kNodes);
    }
}

TEST(Router, ConsistentHashIsSticky)
{
    Router router(RoutePolicy::kConsistentHash, 9, 5);
    std::vector<double> depths(9, 0.0);
    for (uint64_t user = 0; user < 200; ++user) {
        const int first = router.route(user, depths);
        for (int rep = 0; rep < 5; ++rep) {
            EXPECT_EQ(router.route(user, depths), first);
        }
    }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

WorkloadSpec
twoTableWorkload()
{
    WorkloadSpec spec;
    CategoricalFeatureSpec a;
    a.tableRows = 1000;
    a.lookupsPerSample = 30;
    CategoricalFeatureSpec b;
    b.tableRows = 500;
    b.lookupsPerSample = 10;
    spec.categorical = {a, b};
    return spec;
}

TEST(Placement, ReplicatedIsAllLocal)
{
    PlacementConfig cfg;
    cfg.kind = PlacementKind::kReplicated;
    const PlacementView view(cfg, 8, twoTableWorkload());
    EXPECT_DOUBLE_EQ(view.localRowFraction(), 1.0);
    EXPECT_DOUBLE_EQ(view.remoteSecondsPerSample(), 0.0);
    EXPECT_EQ(view.nodeTableBytes(1000), 1000u);
    EXPECT_TRUE(view.rowIsLocal(3, 0, 123));
}

TEST(Placement, RowPartitionedPricesTheRemoteFraction)
{
    PlacementConfig cfg;
    cfg.kind = PlacementKind::kRowPartitioned;
    cfg.replicationFactor = 1;
    cfg.remoteRowSeconds = 1e-6;
    const PlacementView view(cfg, 4, twoTableWorkload());
    EXPECT_DOUBLE_EQ(view.localRowFraction(), 0.25);
    EXPECT_DOUBLE_EQ(view.remoteFraction(), 0.75);
    // 40 lookups/sample x 0.75 remote x 1us per remote row.
    EXPECT_DOUBLE_EQ(view.remoteSecondsPerSample(), 40.0 * 0.75 * 1e-6);
    EXPECT_EQ(view.nodeTableBytes(1000), 250u);
}

TEST(Placement, RowIsLocalMatchesTheExpectedFraction)
{
    PlacementConfig cfg;
    cfg.kind = PlacementKind::kRowPartitioned;
    cfg.replicationFactor = 2;
    const int kNodes = 5;
    const PlacementView view(cfg, kNodes, twoTableWorkload());
    // Every row is resident on exactly R nodes, and each node holds
    // exactly the expected fraction of a shard-aligned row range.
    const int64_t kRows = 1000;  // multiple of kNodes: exact counts
    for (int node = 0; node < kNodes; ++node) {
        int64_t local = 0;
        for (int64_t row = 0; row < kRows; ++row) {
            int holders = 0;
            for (int n = 0; n < kNodes; ++n) {
                holders += view.rowIsLocal(n, 0, row) ? 1 : 0;
            }
            EXPECT_EQ(holders, view.effectiveReplication());
            local += view.rowIsLocal(node, 0, row) ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(
            static_cast<double>(local) / static_cast<double>(kRows),
            view.localRowFraction());
    }
}

TEST(Placement, ReplicationAtFleetSizeDegeneratesToReplicated)
{
    PlacementConfig cfg;
    cfg.kind = PlacementKind::kRowPartitioned;
    cfg.replicationFactor = 6;
    const PlacementView view(cfg, 4, twoTableWorkload());
    EXPECT_DOUBLE_EQ(view.localRowFraction(), 1.0);
    EXPECT_DOUBLE_EQ(view.remoteSecondsPerSample(), 0.0);
    EXPECT_TRUE(view.rowIsLocal(2, 1, 77));
}

// ---------------------------------------------------------------------------
// FleetSimulator
// ---------------------------------------------------------------------------

class FleetSimTest : public ::testing::Test
{
  protected:
    FleetSimTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    FleetConfig fleetConfig(int nodes, RoutePolicy policy)
    {
        FleetConfig cfg;
        cfg.numNodes = nodes;
        cfg.policy = policy;
        cfg.workersPerNode = 2;
        cfg.maxBatch = 64;
        cfg.maxWaitSeconds = 1e-3;
        cfg.simSeconds = 0.25;
        return cfg;
    }

    TrafficConfig trafficConfig(double qps)
    {
        TrafficConfig traffic;
        traffic.baseQps = qps;
        traffic.numUsers = 100000;
        traffic.userZipf = 0.9;
        traffic.seed = 42;
        return traffic;
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(FleetSimTest, ServesEveryArrival)
{
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const FleetResult result = fleet.simulate(
        fleetConfig(3, RoutePolicy::kRoundRobin), trafficConfig(6000));
    EXPECT_GT(result.totalArrivals, 0u);
    EXPECT_EQ(result.aggregate.samplesArrived, result.totalArrivals);
    EXPECT_EQ(result.aggregate.samplesServed, result.totalArrivals);
    uint64_t routed = 0;
    for (const FleetNodeResult& node : result.perNode) {
        routed += node.routedQueries;
        EXPECT_EQ(node.stats.samplesServed, node.routedQueries);
    }
    EXPECT_EQ(routed, result.totalArrivals);
}

TEST_F(FleetSimTest, SingleNodeRoundRobinMatchesServingEngineExactly)
{
    // The fleet's constant-envelope arrival clock is bit-identical to
    // the PoissonProcess the single-node engine draws from, and a
    // 1-node fleet routes everything to node 0 — so the analytic twin
    // must reproduce ServingNode::run to the last bit, with one worker
    // (the single-server model) as with several.
    const double kQps = 6000;
    for (int workers : {1, 2}) {
        SCOPED_TRACE(workers);
        FleetConfig fcfg = fleetConfig(1, RoutePolicy::kRoundRobin);
        fcfg.workersPerNode = workers;
        TrafficConfig traffic = trafficConfig(kQps);

        FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
        const FleetResult fleet_result = fleet.simulate(fcfg, traffic);

        ServingNode engine(&sched_, ModelId::kRM1, 0);
        EngineConfig ecfg;
        ecfg.numWorkers = fcfg.workersPerNode;
        ecfg.arrivalQps = kQps;
        ecfg.maxBatch = fcfg.maxBatch;
        ecfg.maxWaitSeconds = fcfg.maxWaitSeconds;
        ecfg.simSeconds = fcfg.simSeconds;
        ecfg.seed = traffic.seed;
        const EngineResult engine_result = engine.run(ecfg);

        EXPECT_EQ(fleet_result.aggregate.samplesArrived,
                  engine_result.aggregate.samplesArrived);
        EXPECT_EQ(fleet_result.aggregate.samplesServed,
                  engine_result.aggregate.samplesServed);
        EXPECT_EQ(fleet_result.aggregate.batchesServed,
                  engine_result.aggregate.batchesServed);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.meanLatency,
                         engine_result.aggregate.meanLatency);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.p50Latency,
                         engine_result.aggregate.p50Latency);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.p95Latency,
                         engine_result.aggregate.p95Latency);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.p99Latency,
                         engine_result.aggregate.p99Latency);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.utilization,
                         engine_result.aggregate.utilization);
        EXPECT_DOUBLE_EQ(fleet_result.aggregate.throughputQps,
                         engine_result.aggregate.throughputQps);
    }
}

TEST_F(FleetSimTest, CapturedTracesReplayExactlyThroughServingNode)
{
    // The differential pin for the analytic twin: each node's routed
    // sub-stream, replayed through the real threaded ServingNode in
    // trace mode, must reproduce the twin's per-node stats exactly —
    // same admission rules, same contention factors, same placement
    // surcharge, same fp expression order.
    FleetConfig fcfg = fleetConfig(3, RoutePolicy::kPowerOfTwo);
    fcfg.captureTraces = true;
    fcfg.placement.kind = PlacementKind::kRowPartitioned;
    fcfg.placement.replicationFactor = 1;
    TrafficConfig traffic = trafficConfig(9000);

    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const FleetResult result = fleet.simulate(fcfg, traffic);
    ASSERT_GT(result.remoteSecondsPerSample, 0.0);

    for (size_t n = 0; n < result.perNode.size(); ++n) {
        const FleetNodeResult& twin = result.perNode[n];
        ServingNode node(&sched_, ModelId::kRM1, 0);
        EngineConfig ecfg;
        ecfg.numWorkers = fcfg.workersPerNode;
        ecfg.arrivalQps = traffic.baseQps;  // unused in trace mode
        ecfg.maxBatch = fcfg.maxBatch;
        ecfg.maxWaitSeconds = fcfg.maxWaitSeconds;
        ecfg.simSeconds = fcfg.simSeconds;
        ecfg.seed = traffic.seed;
        ecfg.remoteSecondsPerSample = result.remoteSecondsPerSample;
        const EngineResult replay =
            node.runTrace(ecfg, twin.arrivalTrace);

        EXPECT_EQ(replay.aggregate.samplesArrived,
                  twin.stats.samplesArrived)
            << "node " << n;
        EXPECT_EQ(replay.aggregate.samplesServed,
                  twin.stats.samplesServed)
            << "node " << n;
        EXPECT_EQ(replay.aggregate.batchesServed,
                  twin.stats.batchesServed)
            << "node " << n;
        EXPECT_DOUBLE_EQ(replay.aggregate.meanLatency,
                         twin.stats.meanLatency)
            << "node " << n;
        EXPECT_DOUBLE_EQ(replay.aggregate.p50Latency,
                         twin.stats.p50Latency)
            << "node " << n;
        EXPECT_DOUBLE_EQ(replay.aggregate.p99Latency,
                         twin.stats.p99Latency)
            << "node " << n;
        EXPECT_DOUBLE_EQ(replay.aggregate.utilization,
                         twin.stats.utilization)
            << "node " << n;
        EXPECT_DOUBLE_EQ(replay.aggregate.meanBatch,
                         twin.stats.meanBatch)
            << "node " << n;
    }
}

TEST_F(FleetSimTest, MergedHistogramP99AgreesWithinOneBucket)
{
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const FleetResult result = fleet.simulate(
        fleetConfig(4, RoutePolicy::kPowerOfTwo), trafficConfig(10000));
    ASSERT_GT(result.aggregate.samplesServed, 0u);
    // Merged counts cover every served sample (clamping keeps
    // out-of-range ones in the edge buckets).
    EXPECT_EQ(result.mergedHistogram.total,
              result.aggregate.samplesServed);
    EXPECT_NEAR(result.mergedP99, result.aggregate.p99Latency,
                result.mergedHistogram.bucketWidth());
}

TEST_F(FleetSimTest, DeterministicAcrossRuns)
{
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const FleetConfig cfg = fleetConfig(3, RoutePolicy::kPowerOfTwo);
    const TrafficConfig traffic = trafficConfig(8000);
    const FleetResult a = fleet.simulate(cfg, traffic);
    const FleetResult b = fleet.simulate(cfg, traffic);
    EXPECT_EQ(a.totalArrivals, b.totalArrivals);
    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.aggregate.batchesServed, b.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(a.mergedP99, b.mergedP99);
    for (size_t n = 0; n < a.perNode.size(); ++n) {
        EXPECT_EQ(a.perNode[n].routedQueries,
                  b.perNode[n].routedQueries);
    }
}

TEST_F(FleetSimTest, StickyHashingConcentratesSkewedUsers)
{
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const TrafficConfig traffic = trafficConfig(8000);
    const FleetResult rr = fleet.simulate(
        fleetConfig(4, RoutePolicy::kRoundRobin), traffic);
    const FleetResult hash = fleet.simulate(
        fleetConfig(4, RoutePolicy::kConsistentHash), traffic);
    // Round-robin splits counts evenly regardless of skew; sticky
    // hashing pins each user's whole stream to one node, so the
    // Zipf-hot users imbalance it.
    EXPECT_GT(hash.routedImbalance, rr.routedImbalance);
    EXPECT_LT(rr.routedImbalance, 1.01);
}

TEST_F(FleetSimTest, DiurnalEnvelopeThinsTraffic)
{
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const FleetConfig cfg = fleetConfig(2, RoutePolicy::kRoundRobin);
    TrafficConfig constant = trafficConfig(8000);
    TrafficConfig diurnal = trafficConfig(8000);
    // Peak at t=0, trough (30% of peak) at mid-run.
    diurnal.envelope =
        RateEnvelope::diurnal(cfg.simSeconds * 2.0, 0.3);
    const FleetResult base = fleet.simulate(cfg, constant);
    const FleetResult modulated = fleet.simulate(cfg, diurnal);
    EXPECT_LT(modulated.totalArrivals, base.totalArrivals);
    // Mean multiplier over the first half-period is well above the
    // trough; arrivals should not collapse to the trough rate either.
    EXPECT_GT(modulated.totalArrivals, base.totalArrivals / 3);
    // Determinism under modulation.
    const FleetResult again = fleet.simulate(cfg, diurnal);
    EXPECT_EQ(again.totalArrivals, modulated.totalArrivals);
    EXPECT_DOUBLE_EQ(again.aggregate.p99Latency,
                     modulated.aggregate.p99Latency);
}

// ---------------------------------------------------------------------------
// Single-server serving: a 1-node, 1-worker round-robin fleet
// ---------------------------------------------------------------------------

class ServingTest : public FleetSimTest
{
  protected:
    ServingStats run(ModelId model, size_t platform, double qps,
                     int64_t max_batch = 256, double window = 1e-3)
    {
        FleetConfig cfg = fleetConfig(1, RoutePolicy::kRoundRobin);
        cfg.workersPerNode = 1;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = window;
        cfg.simSeconds = kSimSeconds;
        FleetSimulator server(&sched_, model, platform);
        return server.simulate(cfg, trafficConfig(qps)).aggregate;
    }

    static constexpr double kSimSeconds = 0.5;
};

TEST_F(ServingTest, ConservesSamples)
{
    const ServingStats s = run(ModelId::kNCF, 0, 2000);
    EXPECT_GT(s.samplesArrived, 0u);
    EXPECT_EQ(s.samplesServed, s.samplesArrived);
    EXPECT_EQ(s.droppedSamples, 0u);
    EXPECT_GT(s.batchesServed, 0u);
}

TEST_F(ServingTest, CountsEveryArrivalBeforeTheHorizon)
{
    // Regression: the deleted single-server simulator lost arrivals
    // just before the horizon when a batch completed past it with an
    // empty queue (25081 of these 25105). Count the same seeded
    // Poisson stream independently.
    const double kQps = 50000;
    uint64_t expected = 0;
    PoissonProcess clock(kQps, 42);
    while (clock.next() < kSimSeconds) {
        ++expected;
    }
    EXPECT_EQ(expected, 25105u);
    const ServingStats s = run(ModelId::kRM1, 0, kQps);
    EXPECT_EQ(s.samplesArrived, expected);
    EXPECT_EQ(s.samplesServed, expected);
}

TEST_F(ServingTest, OverSaturatedRunServesEveryArrival)
{
    // Offer ~12x the batch-1 capacity with no batching: the backlog
    // drains long past the horizon, and every arrival is still served
    // (there is no drain cutoff).
    const double service = sched_.latency(ModelId::kRM2, 0, 1);
    const ServingStats s = run(ModelId::kRM2, 0, 12.0 / service,
                               /*max_batch=*/1, /*window=*/0.0);
    EXPECT_GT(s.samplesArrived, 0u);
    EXPECT_EQ(s.samplesServed, s.samplesArrived);
    EXPECT_EQ(s.droppedSamples, 0u);
    EXPECT_GT(s.offeredLoad, 10.0);
}

TEST_F(ServingTest, OfferedLoadUnclampedAtSaturation)
{
    // Regression: utilization is clamped to 1, which used to hide
    // over-saturation entirely; offeredLoad reports the unclamped
    // demand. The drain tail runs past simSeconds, so demanded
    // service exceeds the arrival window.
    const double service = sched_.latency(ModelId::kRM2, 0, 1);
    const ServingStats s = run(ModelId::kRM2, 0, 6.0 / service,
                               /*max_batch=*/1, /*window=*/0.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GT(s.offeredLoad, 1.0);

    // Light load: offered load stays under 1 and only exceeds the
    // clamped utilization by the (short) drain tail.
    const ServingStats light = run(ModelId::kNCF, 0, 500);
    EXPECT_LT(light.offeredLoad, 1.0);
    EXPECT_GE(light.offeredLoad, light.utilization);
}

TEST_F(ServingTest, StatisticsAreWellFormed)
{
    const ServingStats s = run(ModelId::kRM1, 0, 5000);
    EXPECT_GT(s.meanLatency, 0.0);
    EXPECT_LE(s.p50Latency, s.p95Latency);
    EXPECT_LE(s.p95Latency, s.p99Latency);
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GE(s.meanBatch, 1.0);
    EXPECT_LE(s.meanBatch, 256.0);
}

TEST_F(ServingTest, LatencyAtLeastServiceTime)
{
    const ServingStats s = run(ModelId::kWnD, 0, 100, 1, 0.0);
    // Batch-1 service latency bounds every sample's latency below.
    EXPECT_GE(s.p50Latency, sched_.latency(ModelId::kWnD, 0, 1) * 0.99);
}

TEST_F(ServingTest, Deterministic)
{
    const ServingStats a = run(ModelId::kRM2, 0, 3000);
    const ServingStats b = run(ModelId::kRM2, 0, 3000);
    EXPECT_EQ(a.samplesServed, b.samplesServed);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
}

TEST_F(ServingTest, TailGrowsWithLoad)
{
    const ServingStats light = run(ModelId::kRM1, 0, 1000);
    const ServingStats heavy = run(ModelId::kRM1, 0, 50000);
    EXPECT_GT(heavy.p99Latency, light.p99Latency);
    EXPECT_GT(heavy.meanBatch, light.meanBatch);
}

TEST_F(ServingTest, UtilizationGrowsWithLoad)
{
    const ServingStats light = run(ModelId::kNCF, 0, 500);
    const ServingStats heavy = run(ModelId::kNCF, 0, 20000);
    EXPECT_GT(heavy.utilization, light.utilization);
}

TEST_F(ServingTest, BiggerBatchCapRaisesThroughputCeiling)
{
    // At overload, a larger batching cap serves more samples/second:
    // on a GPU the per-kernel launch overhead amortizes with batch.
    const ServingStats small_cap =
        run(ModelId::kWnD, 3, 2.0e5, /*max_batch=*/8);
    const ServingStats big_cap =
        run(ModelId::kWnD, 3, 2.0e5, /*max_batch=*/1024);
    EXPECT_GT(big_cap.throughputQps, small_cap.throughputQps * 1.5);
}

TEST_F(ServingTest, WindowTradesLatencyForBatching)
{
    const ServingStats eager =
        run(ModelId::kRM1, 0, 2000, 256, /*window=*/0.0);
    const ServingStats patient =
        run(ModelId::kRM1, 0, 2000, 256, /*window=*/20e-3);
    EXPECT_GT(patient.meanBatch, eager.meanBatch);
    EXPECT_GT(patient.p50Latency, eager.p50Latency);
}

TEST_F(ServingTest, RejectsBadConfig)
{
    FleetSimulator server(&sched_, ModelId::kNCF, 0);
    FleetConfig cfg = fleetConfig(1, RoutePolicy::kRoundRobin);
    EXPECT_DEATH(server.simulate(cfg, trafficConfig(0.0)), "arrival rate");
    EXPECT_DEATH(FleetSimulator(nullptr, ModelId::kNCF, 0),
                 "needs a scheduler");
}

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

obs::HistogramSnapshot
syntheticTail(double p99_seconds)
{
    obs::LatencyHistogram hist(0.0, 1.0, 1000);
    for (int i = 0; i < 1000; ++i) {
        hist.record(p99_seconds * 0.5);
    }
    for (int i = 0; i < 20; ++i) {
        hist.record(p99_seconds);
    }
    return hist.snapshot();
}

TEST(Autoscaler, ConvergesToTheMinimalFeasibleFleet)
{
    // p99 ~ 0.1 / nodes; SLA 0.03 -> smallest feasible fleet is 4.
    AutoscalerConfig cfg;
    cfg.slaP99Seconds = 0.03;
    cfg.minNodes = 1;
    cfg.maxNodes = 8;
    const AutoscalerResult result =
        autoscale(cfg, [](int nodes, int /*epoch*/) {
            return syntheticTail(0.1 / static_cast<double>(nodes));
        });
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.nodes, 4);
    EXPECT_LE(result.epochsUsed, cfg.maxEpochs);
    // The walk went straight up: 1, 2, 3 violated, 4 settled, and the
    // memoized verdict for 3 blocked any drain probe.
    ASSERT_EQ(result.history.size(), 4u);
    for (size_t i = 0; i < result.history.size(); ++i) {
        EXPECT_EQ(result.history[i].nodes, static_cast<int>(i) + 1);
    }
}

TEST(Autoscaler, FeasibleAtMinHoldsImmediately)
{
    AutoscalerConfig cfg;
    cfg.slaP99Seconds = 0.5;
    const AutoscalerResult result = autoscale(
        cfg, [](int, int) { return syntheticTail(0.01); });
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.nodes, cfg.minNodes);
    EXPECT_EQ(result.epochsUsed, 1);
}

TEST(Autoscaler, ReportsInfeasibleAtMaxNodes)
{
    AutoscalerConfig cfg;
    cfg.slaP99Seconds = 1e-4;
    cfg.maxNodes = 4;
    const AutoscalerResult result = autoscale(
        cfg, [](int, int) { return syntheticTail(0.5); });
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.nodes, cfg.maxNodes);
    EXPECT_EQ(result.epochsUsed, 4);
}

TEST_F(FleetSimTest, AutoscalerReachesFeasibilityOnTheRealFleet)
{
    // Control signal = merged per-node histograms from real fleet
    // runs. Pick the SLA from a healthy large fleet's measured tail
    // so feasibility is guaranteed to exist within the node budget.
    FleetSimulator fleet(&sched_, ModelId::kRM1, 0);
    const TrafficConfig traffic = trafficConfig(24000);
    auto run_fleet = [&](int nodes) {
        FleetConfig cfg = fleetConfig(nodes, RoutePolicy::kPowerOfTwo);
        return fleet.simulate(cfg, traffic);
    };
    const FleetResult big = run_fleet(6);
    AutoscalerConfig cfg;
    cfg.slaP99Seconds = big.mergedP99 * 1.5;
    cfg.minNodes = 1;
    cfg.maxNodes = 6;
    const AutoscalerResult result =
        autoscale(cfg, [&](int nodes, int /*epoch*/) {
            return run_fleet(nodes).mergedHistogram;
        });
    EXPECT_TRUE(result.feasible);
    EXPECT_LE(result.epochsUsed, cfg.maxEpochs);
    EXPECT_LE(result.nodes, 6);
}

}  // namespace
}  // namespace fleet
}  // namespace recstack
