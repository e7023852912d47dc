/**
 * @file
 * Tests of the multi-worker serving node: determinism under real
 * thread interleaving, contention coupling, the accelerator lanes, the
 * admission step, and batch-queue semantics pinned ticket by ticket.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/batch_queue.h"
#include "serve/serving_node.h"

namespace recstack {

/** Lane-suite parameters print as their platform kind. */
void
PrintTo(PlatformKind kind, std::ostream* os)
{
    const char* names[] = {"CPU", "GPU", "PIM"};
    *os << names[static_cast<int>(kind)];
}

namespace {

class ServingEngineTest : public ::testing::Test
{
  protected:
    ServingEngineTest()
        : sweep_(allPlatformsWithPim(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    EngineResult run(ModelId model, size_t platform, int workers,
                     double qps, int64_t max_batch = 256,
                     double window = 1e-3, uint64_t seed = 42,
                     ExecMode mode = ExecMode::kProfileOnly)
    {
        ServingNode engine(&sched_, model, platform);
        EngineConfig cfg;
        cfg.numWorkers = workers;
        cfg.arrivalQps = qps;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = window;
        cfg.simSeconds = 0.25;
        cfg.seed = seed;
        cfg.execMode = mode;
        return engine.run(cfg);
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(ServingEngineTest, DeterministicAcrossThreadInterleavings)
{
    // Virtual-time ordering makes every stat (host wall time aside) a
    // pure function of the config, no matter how the OS schedules the
    // four worker threads.
    const EngineResult a = run(ModelId::kRM1, 0, 4, 20000);
    const EngineResult b = run(ModelId::kRM1, 0, 4, 20000);
    EXPECT_EQ(a.aggregate.samplesArrived, b.aggregate.samplesArrived);
    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.aggregate.batchesServed, b.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(a.aggregate.meanLatency, b.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(a.meanSlowdown, b.meanSlowdown);
    ASSERT_EQ(a.perWorker.size(), b.perWorker.size());
    for (size_t w = 0; w < a.perWorker.size(); ++w) {
        EXPECT_EQ(a.perWorker[w].samplesServed,
                  b.perWorker[w].samplesServed);
        EXPECT_DOUBLE_EQ(a.perWorker[w].p99Latency,
                         b.perWorker[w].p99Latency);
    }
}

TEST_F(ServingEngineTest, PerWorkerStatsSumToAggregate)
{
    const EngineResult r = run(ModelId::kNCF, 0, 3, 10000);
    uint64_t served = 0;
    uint64_t batches = 0;
    for (const ServingStats& w : r.perWorker) {
        served += w.samplesServed;
        batches += w.batchesServed;
    }
    EXPECT_EQ(served, r.aggregate.samplesServed);
    EXPECT_EQ(batches, r.aggregate.batchesServed);
    // The engine drains the whole stream: nothing arrives unserved.
    EXPECT_EQ(r.aggregate.samplesServed, r.aggregate.samplesArrived);
    EXPECT_EQ(r.aggregate.droppedSamples, 0u);
    EXPECT_EQ(r.batchesExecuted, r.aggregate.batchesServed);
}

TEST_F(ServingEngineTest, MoreWorkersRaiseSaturatedThroughput)
{
    // Offer well beyond one worker's capacity; extra workers must
    // lift aggregate throughput even with contention inflation.
    const double cap1 =
        256.0 / sched_.latency(ModelId::kRM1, 0, 256);
    const double qps = 3.0 * cap1;
    const EngineResult w1 = run(ModelId::kRM1, 0, 1, qps);
    const EngineResult w2 = run(ModelId::kRM1, 0, 2, qps);
    const EngineResult w4 = run(ModelId::kRM1, 0, 4, qps);
    EXPECT_GT(w2.aggregate.throughputQps,
              w1.aggregate.throughputQps * 1.2);
    EXPECT_GE(w4.aggregate.throughputQps,
              w2.aggregate.throughputQps);
    // And the backlog clears sooner: tails shrink with capacity.
    EXPECT_LT(w4.aggregate.p99Latency, w1.aggregate.p99Latency);
}

TEST_F(ServingEngineTest, ContentionInflatesServiceWithOccupancy)
{
    const double cap1 =
        256.0 / sched_.latency(ModelId::kRM2, 0, 256);
    const EngineResult solo = run(ModelId::kRM2, 0, 1, 2.0 * cap1);
    const EngineResult packed = run(ModelId::kRM2, 0, 8, 8.0 * cap1);
    EXPECT_DOUBLE_EQ(solo.meanSlowdown, 1.0);
    EXPECT_GE(packed.meanSlowdown, 1.0);
    EXPECT_GT(packed.maxSlowdown, 1.0);
    // Contention never prices below the co-location model's floor.
    EXPECT_LE(packed.maxSlowdown, 64.0);
}

TEST_F(ServingEngineTest, ContentionCanBeDisabled)
{
    ServingNode engine(&sched_, ModelId::kRM2, 0);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 50000;
    cfg.simSeconds = 0.1;
    cfg.modelContention = false;
    const EngineResult r = engine.run(cfg);
    EXPECT_DOUBLE_EQ(r.meanSlowdown, 1.0);
    EXPECT_DOUBLE_EQ(r.maxSlowdown, 1.0);
}

TEST_F(ServingEngineTest, RealNumericsModeExecutesTheNet)
{
    const EngineResult r =
        run(ModelId::kNCF, 0, 2, 2000, 64, 1e-3, 42,
            ExecMode::kNumericOnly);
    EXPECT_GT(r.batchesExecuted, 0u);
    EXPECT_GT(r.hostSeconds, 0.0);  // real kernels ran on the workers
    EXPECT_GT(r.aggregate.meanLatency, 0.0);
}

TEST_F(ServingEngineTest, GpuPlatformHasNoSocketContention)
{
    // Platform 3 is the T4: co-located workers model independent
    // devices, so no shared-socket inflation applies.
    const EngineResult r = run(ModelId::kWnD, 3, 4, 50000);
    EXPECT_DOUBLE_EQ(r.meanSlowdown, 1.0);
    EXPECT_GT(r.aggregate.samplesServed, 0u);
}

TEST_F(ServingEngineTest, CompilesTheModelOnceAcrossWorkersAndRuns)
{
    // All workers execute through one shared CompiledNet; a second
    // run() must reuse it rather than recompile. Counted via the
    // global compile counter (delta, not absolute: other tests in the
    // process compile nets of their own) and by pointer identity of
    // the engine's compiled net. The characterizer behind the node
    // compiles nothing, so even the first run() of a cold model counts
    // exactly one compilation.
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.1;
    cfg.execMode = ExecMode::kNumericOnly;

    ServingNode engine(&sched_, ModelId::kNCF, 0);
    EXPECT_EQ(engine.compiled(), nullptr);
    const uint64_t before = CompiledNet::compileCount();
    engine.run(cfg);
    const std::shared_ptr<const CompiledNet> first = engine.compiled();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(CompiledNet::compileCount(), before + 1)
        << "4 workers must share one compilation";

    engine.run(cfg);
    EXPECT_EQ(engine.compiled(), first);
    EXPECT_EQ(CompiledNet::compileCount(), before + 1)
        << "second run must reuse the compiled net";
}

TEST_F(ServingEngineTest, SharedStoreKeepsTableMemoryOffWorkerCount)
{
    // Regression for per-worker weight materialization: N numeric
    // workers used to initParams() N private table copies. With the
    // shared store the resident table footprint must be one backing
    // copy plus the (configurable) hot-row caches — O(1 copy + cache),
    // not O(workers).
    ServingNode engine(&sched_, ModelId::kRM2, 0);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 2000;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.1;
    cfg.execMode = ExecMode::kNumericOnly;
    cfg.storeConfig.numShards = 2;
    cfg.storeConfig.cacheBytesPerShard = 0;  // isolate the copy count
    const EngineResult r = engine.run(cfg);

    EXPECT_GT(r.tableBytesOneCopy, 0u);
    EXPECT_EQ(r.perWorkerTableBytes, 4 * r.tableBytesOneCopy);
    EXPECT_EQ(r.residentTableBytes, r.tableBytesOneCopy);
    // The acceptance bound: sharing saves >= (workers-1)/workers of
    // the per-worker baseline.
    const double saved =
        static_cast<double>(r.perWorkerTableBytes -
                            r.residentTableBytes) /
        static_cast<double>(r.perWorkerTableBytes);
    EXPECT_GE(saved, 3.0 / 4.0);
    // The workers really read through the store.
    EXPECT_GT(r.storeStats.total.lookups, 0u);

    // With caches enabled the footprint grows by at most the cache
    // capacity, still independent of the worker count.
    EngineConfig cached = cfg;
    cached.storeConfig.cacheBytesPerShard = 4u << 10;
    ServingNode cached_engine(&sched_, ModelId::kRM2, 0);
    const EngineResult rc = cached_engine.run(cached);
    EXPECT_LE(rc.residentTableBytes,
              rc.tableBytesOneCopy +
                  2ull * cached.storeConfig.cacheBytesPerShard);
    EXPECT_GT(rc.storeStats.total.hits, 0u);
}

TEST_F(ServingEngineTest, RejectsBadConfig)
{
    ServingNode engine(&sched_, ModelId::kNCF, 0);
    EngineConfig bad;
    bad.numWorkers = 0;
    EXPECT_DEATH(engine.run(bad), "at least one worker");
    EngineConfig bad_qps;
    bad_qps.arrivalQps = 0.0;
    EXPECT_DEATH(engine.run(bad_qps), "arrival rate");
    EXPECT_DEATH(ServingNode(nullptr, ModelId::kNCF, 0),
                 "needs a scheduler");
    EXPECT_DEATH(ServingNode(&sched_, ModelId::kNCF, 99),
                 "platform index");
}

// --- Accelerator lanes: the GPU and PIM splits are one mechanism. ---

/** Lane tests run once per accelerator: GPU (index 3), PIM (index 4). */
class AccelLaneTest : public ServingEngineTest,
                      public ::testing::WithParamInterface<PlatformKind>
{
  protected:
    static PlatformKind kind() { return GetParam(); }

    static EngineConfig baseConfig(bool with_lane = true)
    {
        EngineConfig cfg;
        cfg.numWorkers = 2;
        cfg.arrivalQps = 8000;
        cfg.simSeconds = 0.25;
        if (with_lane) {
            AccelLaneConfig lane;
            lane.platformIdx = kind() == PlatformKind::kGpu ? 3 : 4;
            cfg.lanes = {lane};
        }
        return cfg;
    }

    EngineResult serve(const EngineConfig& cfg)
    {
        ServingNode engine(&sched_, ModelId::kRM1, 0);
        return engine.run(cfg);
    }
};

TEST_P(AccelLaneTest, ThresholdDefaultsToRouteNothing)
{
    EXPECT_EQ(sched_.threshold(kind(), ModelId::kRM1),
              QueryScheduler::kNoThreshold);
    EXPECT_FALSE(sched_.routesTo(kind(), ModelId::kRM1, int64_t{1} << 20));
    EXPECT_FALSE(sched_.routesTo(kind(), ModelId::kRM1, int64_t{1} << 40));
}

TEST_P(AccelLaneTest, ThresholdSplitsAtOrAbovePerModel)
{
    sched_.setThreshold(kind(), ModelId::kRM1, 64);
    EXPECT_EQ(sched_.threshold(kind(), ModelId::kRM1), 64);
    EXPECT_FALSE(sched_.routesTo(kind(), ModelId::kRM1, 63));
    EXPECT_TRUE(sched_.routesTo(kind(), ModelId::kRM1, 64));
    EXPECT_TRUE(sched_.routesTo(kind(), ModelId::kRM1, 65));
    // Per-model: other models keep the route-nothing default.
    EXPECT_EQ(sched_.threshold(kind(), ModelId::kWnD),
              QueryScheduler::kNoThreshold);
    EXPECT_FALSE(sched_.routesTo(kind(), ModelId::kRM2, 1024));
    // Per-kind: the other accelerator keeps its own default.
    const PlatformKind other = kind() == PlatformKind::kGpu
                                   ? PlatformKind::kPim
                                   : PlatformKind::kGpu;
    EXPECT_EQ(sched_.threshold(other, ModelId::kRM1),
              QueryScheduler::kNoThreshold);
    // Threshold 1 routes every batch.
    sched_.setThreshold(kind(), ModelId::kRM2, 1);
    EXPECT_TRUE(sched_.routesTo(kind(), ModelId::kRM2, 1));
    // Re-set overwrites.
    sched_.setThreshold(kind(), ModelId::kRM1, 128);
    EXPECT_EQ(sched_.threshold(kind(), ModelId::kRM1), 128);
}

TEST_P(AccelLaneTest, UnroutedLaneMatchesLaneFreeStats)
{
    // With the lane configured but no threshold set (kNoThreshold =
    // route nothing), every batch still lands on the CPU workers and
    // the serving stats must match a run without the lane exactly.
    // Only the capacity-normalized aggregate fields (utilization /
    // offeredLoad) may differ: the aggregate divides by numWorkers + 1
    // servers by contract.
    const EngineResult off = serve(baseConfig(false));
    const EngineResult on = serve(baseConfig());

    EXPECT_TRUE(off.lanes.empty());
    ASSERT_EQ(on.lanes.size(), 1u);
    const LaneResult& lane = on.lanes.front();
    EXPECT_EQ(lane.kind, kind());
    EXPECT_EQ(lane.threshold, QueryScheduler::kNoThreshold);
    EXPECT_EQ(lane.deferredTickets, 0u);
    EXPECT_EQ(lane.stats.samplesServed, 0u);
    EXPECT_EQ(lane.stats.batchesServed, 0u);
    ASSERT_EQ(off.perWorker.size(), on.perWorker.size());
    for (size_t w = 0; w < off.perWorker.size(); ++w) {
        EXPECT_EQ(off.perWorker[w].samplesServed,
                  on.perWorker[w].samplesServed);
        EXPECT_EQ(off.perWorker[w].batchesServed,
                  on.perWorker[w].batchesServed);
        EXPECT_DOUBLE_EQ(off.perWorker[w].meanLatency,
                         on.perWorker[w].meanLatency);
        EXPECT_DOUBLE_EQ(off.perWorker[w].p99Latency,
                         on.perWorker[w].p99Latency);
    }
    EXPECT_EQ(off.aggregate.samplesArrived, on.aggregate.samplesArrived);
    EXPECT_EQ(off.aggregate.samplesServed, on.aggregate.samplesServed);
    EXPECT_EQ(off.aggregate.batchesServed, on.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(off.aggregate.meanLatency,
                     on.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(off.aggregate.p99Latency, on.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(off.aggregate.throughputQps,
                     on.aggregate.throughputQps);
    EXPECT_DOUBLE_EQ(off.meanSlowdown, on.meanSlowdown);
}

TEST_P(AccelLaneTest, RoutesLargeBatchesToLane)
{
    sched_.setThreshold(kind(), ModelId::kRM1, 32);
    EngineConfig cfg = baseConfig();
    cfg.arrivalQps = 40000;  // ~40 samples per 1 ms window
    const EngineResult r = serve(cfg);

    ASSERT_EQ(r.lanes.size(), 1u);
    const LaneResult& lane = r.lanes.front();
    EXPECT_EQ(lane.threshold, 32);
    EXPECT_GT(lane.deferredTickets, 0u);
    EXPECT_GT(lane.stats.samplesServed, 0u);
    EXPECT_GT(lane.stats.batchesServed, 0u);
    EXPECT_GT(lane.stats.p99Latency, 0.0);
    EXPECT_GT(lane.stats.utilization, 0.0);

    // Conservation across the split: every arrived sample was served
    // exactly once, by a CPU worker or by the lane.
    uint64_t cpu_served = 0;
    uint64_t cpu_batches = 0;
    for (const ServingStats& w : r.perWorker) {
        cpu_served += w.samplesServed;
        cpu_batches += w.batchesServed;
    }
    EXPECT_EQ(cpu_served + lane.stats.samplesServed,
              r.aggregate.samplesServed);
    EXPECT_EQ(r.aggregate.samplesServed, r.aggregate.samplesArrived);
    EXPECT_EQ(cpu_batches + lane.stats.batchesServed,
              r.aggregate.batchesServed);
    // Deferred batches were not executed on the host.
    EXPECT_EQ(r.batchesExecuted, cpu_batches);
}

TEST_P(AccelLaneTest, DeterministicAcrossRuns)
{
    sched_.setThreshold(kind(), ModelId::kRM1, 16);
    EngineConfig cfg = baseConfig();
    cfg.numWorkers = 4;
    cfg.arrivalQps = 30000;
    const EngineResult a = serve(cfg);
    const EngineResult b = serve(cfg);

    ASSERT_EQ(a.lanes.size(), 1u);
    ASSERT_EQ(b.lanes.size(), 1u);
    EXPECT_EQ(a.aggregate.samplesServed, b.aggregate.samplesServed);
    EXPECT_EQ(a.aggregate.batchesServed, b.aggregate.batchesServed);
    EXPECT_EQ(a.lanes[0].deferredTickets, b.lanes[0].deferredTickets);
    EXPECT_EQ(a.lanes[0].stats.samplesServed,
              b.lanes[0].stats.samplesServed);
    EXPECT_EQ(a.lanes[0].stats.batchesServed,
              b.lanes[0].stats.batchesServed);
    EXPECT_DOUBLE_EQ(a.lanes[0].stats.p99Latency,
                     b.lanes[0].stats.p99Latency);
    EXPECT_DOUBLE_EQ(a.aggregate.meanLatency, b.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(a.aggregate.p99Latency, b.aggregate.p99Latency);
}

TEST_P(AccelLaneTest, RejectsNonAcceleratorPlatform)
{
    EngineConfig bad = baseConfig();
    bad.lanes[0].platformIdx = 0;  // Bdw is a CPU
    EXPECT_DEATH(serve(bad), "lane platform must be an accelerator");
    EngineConfig oob = baseConfig();
    oob.lanes[0].platformIdx = 99;
    EXPECT_DEATH(serve(oob), "platform index");
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, AccelLaneTest,
    ::testing::Values(PlatformKind::kGpu, PlatformKind::kPim),
    [](const ::testing::TestParamInfo<PlatformKind>& info) {
        return ::testing::PrintToString(info.param);
    });

/** A ticket handed to a lane: only the arrivals matter to it. */
BatchTicket
lanePayload(std::vector<double> arrivals)
{
    BatchTicket t;
    t.arrivals = std::move(arrivals);
    return t;
}

TEST_F(ServingEngineTest, LaneAccumulationRule)
{
    // One GPU lane (index 3) driven directly, a case per rule that
    // sets the lane apart from admissionStep (accel_lane.h).
    constexpr double kWait = 1e-3;
    const AccelLaneConfig cfg{.platformIdx = 3, .maxBatch = 4,
                              .maxWaitSeconds = kWait};
    using Reason = AccelLaunch::Reason;
    const auto service = [&](int64_t batch) {
        return sched_.latency(ModelId::kRM1, 3, batch);
    };

    {
        SCOPED_TRACE("the window counts from hand-off, not arrival");
        AccelLane lane(&sched_, ModelId::kRM1, cfg);
        lane.submit(lanePayload({0.0, 0.001}), 1.0);
        lane.advanceTo(1.0 + kWait / 2);
        EXPECT_TRUE(lane.launches().empty());
        lane.advanceTo(1.0 + kWait);
        ASSERT_EQ(lane.launches().size(), 1u);
        const AccelLaunch& l = lane.launches()[0];
        EXPECT_EQ(l.launchTime, 1.0 + kWait);
        EXPECT_EQ(l.reason, Reason::kWindow);
        EXPECT_EQ(l.batch, 2);
        EXPECT_EQ(l.completionTime, l.launchTime + service(2));
        ASSERT_EQ(lane.latencies().size(), 2u);
        EXPECT_EQ(lane.latencies()[0], l.completionTime - 0.0);
        EXPECT_EQ(lane.latencies()[1], l.completionTime - 0.001);
    }
    {
        SCOPED_TRACE("a window expiring at a hand-off fires first");
        AccelLane lane(&sched_, ModelId::kRM1, cfg);
        lane.submit(lanePayload({0.5}), 0.5);
        // Three more would fill the batch of four if admitted first.
        lane.submit(lanePayload({0.5, 0.5005, 0.501}), 0.5 + kWait);
        ASSERT_EQ(lane.launches().size(), 1u);
        EXPECT_EQ(lane.launches()[0].launchTime, 0.5 + kWait);
        EXPECT_EQ(lane.launches()[0].reason, Reason::kWindow);
        EXPECT_EQ(lane.launches()[0].batch, 1);
        EXPECT_EQ(lane.pendingSamples(), 3);
    }
    {
        SCOPED_TRACE("a launch while the device is busy queues behind it");
        AccelLane lane(&sched_, ModelId::kRM1, cfg);
        lane.submit(lanePayload({2.0, 2.0, 2.0, 2.0}), 2.0);
        ASSERT_EQ(lane.launches().size(), 1u);
        const double busy_until = lane.launches()[0].completionTime;
        EXPECT_EQ(busy_until, 2.0 + service(4));
        const double trigger = 2.0 + service(4) / 2;
        lane.submit(lanePayload({2.0, 2.0, 2.0, 2.0}), trigger);
        ASSERT_EQ(lane.launches().size(), 2u);
        const AccelLaunch& second = lane.launches()[1];
        EXPECT_EQ(second.reason, Reason::kFull);
        EXPECT_GT(second.launchTime, trigger);
        EXPECT_EQ(second.launchTime, busy_until);
        EXPECT_EQ(second.completionTime, busy_until + service(4));
    }
    {
        SCOPED_TRACE("drain launches at the oldest submit + window");
        AccelLane lane(&sched_, ModelId::kRM1, cfg);
        lane.submit(lanePayload({3.0}), 3.0);
        lane.submit(lanePayload({3.0001}), 3.0002);
        EXPECT_TRUE(lane.launches().empty());
        lane.drain();
        ASSERT_EQ(lane.launches().size(), 1u);
        EXPECT_EQ(lane.launches()[0].launchTime, 3.0 + kWait);
        EXPECT_EQ(lane.launches()[0].reason, Reason::kDrain);
        EXPECT_EQ(lane.launches()[0].batch, 2);
        EXPECT_EQ(lane.pendingSamples(), 0);
        EXPECT_EQ(lane.samplesServed(), 2u);
    }
}

/** FNV-1a over the 8 bytes of each mixed word. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;
    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    }
    void mix(double v) { mix(std::bit_cast<uint64_t>(v)); }
    void mix(const ServingStats& s)
    {
        mix(s.samplesArrived);
        mix(s.samplesServed);
        mix(s.droppedSamples);
        mix(s.batchesServed);
        for (double v : {s.meanLatency, s.p50Latency, s.p95Latency,
                         s.p99Latency, s.meanBatch, s.utilization,
                         s.offeredLoad, s.throughputQps}) {
            mix(v);
        }
    }
};

/** Hash of every virtual-time field of a node run. */
uint64_t
digestResult(const EngineResult& r)
{
    Fnv d;
    d.mix(r.aggregate);
    for (const ServingStats& w : r.perWorker) {
        d.mix(w);
    }
    d.mix(r.meanSlowdown);
    d.mix(r.maxSlowdown);
    d.mix(r.batchesExecuted);
    for (const LaneResult& l : r.lanes) {
        d.mix(static_cast<uint64_t>(l.kind));
        d.mix(static_cast<uint64_t>(l.threshold));
        d.mix(l.deferredTickets);
        d.mix(l.stats);
    }
    return d.h;
}

TEST_F(ServingEngineTest, LaneDigestsArePinned)
{
    // Every virtual-time field of RM1 runs with GPU (index 3) and PIM
    // (index 4) lanes, against constants recorded before the two
    // lanes became one mechanism: each lane alone, both with
    // overlapping thresholds (the GPU lane is listed first and takes
    // batches both would route), a lane that routes nothing, one and
    // three workers, and a store-backed real-numerics run.
    constexpr int64_t kNone = std::numeric_limits<int64_t>::max();
    struct Pinned {
        bool gpu, pim;
        int64_t gpuThreshold, pimThreshold;
        int workers;
        ExecMode mode;
        uint64_t digest;
    };
    const ExecMode kShape = ExecMode::kProfileOnly;
    const Pinned pinned[] = {
        {true, false, 32, kNone, 1, kShape, 0x9339bea86058dc3bull},
        {true, false, 32, kNone, 3, kShape, 0x61aeed9cf4d4c34dull},
        {false, true, kNone, 32, 1, kShape, 0x5caf2c3ee46a2efaull},
        {false, true, kNone, 32, 3, kShape, 0x1aef6777f8828f59ull},
        {true, true, 48, 16, 1, kShape, 0xc3ecc8ccf0549164ull},
        {true, true, 48, 16, 3, kShape, 0x8cbba52de9cdda4full},
        {true, false, kNone, kNone, 1, kShape, 0x1d3f1df5b7b90b4bull},
        {true, true, kNone, kNone, 3, kShape, 0x92928fbaa0ea2d77ull},
        {true, true, 48, 16, 2, ExecMode::kNumericOnly, 0x5e64477c1e156e86ull},
    };
    for (const Pinned& p : pinned) {
        sched_.setThreshold(PlatformKind::kGpu, ModelId::kRM1,
                            p.gpuThreshold);
        sched_.setThreshold(PlatformKind::kPim, ModelId::kRM1,
                            p.pimThreshold);
        EngineConfig cfg;
        cfg.numWorkers = p.workers;
        cfg.arrivalQps = 40000;
        cfg.simSeconds = p.mode == kShape ? 0.25 : 0.05;
        cfg.execMode = p.mode;
        if (p.gpu) {
            cfg.lanes.push_back({.platformIdx = 3});
        }
        if (p.pim) {
            cfg.lanes.push_back({.platformIdx = 4, .maxBatch = 128});
        }
        ServingNode engine(&sched_, ModelId::kRM1, 0);
        const EngineResult r = engine.run(cfg);
        EXPECT_EQ(r.lanes.size(), size_t{p.gpu} + size_t{p.pim});
        EXPECT_EQ(digestResult(r), p.digest)
            << std::hex << digestResult(r) << std::dec << ": gpu "
            << p.gpu << " pim " << p.pim << ", " << p.workers
            << " workers";
    }
}

TEST(BatchQueueTest, OccupancyTieCountsCompletingWorkerIdle)
{
    // Regression pinning the tie convention (batch_queue.h): service
    // occupies the half-open interval [launch, completion), so a peer
    // whose completion lands *exactly* on this launch instant is idle
    // — it must not inflate the contention occupancy. Driven through
    // the pure helper because Poisson arrival times never produce an
    // exact FP tie via acquire().
    const std::vector<double> ready = {0.5, 0.25};
    const std::vector<bool> active = {true, true};
    // Worker 1 launches exactly when worker 0 completes: idle peer.
    EXPECT_EQ(BatchQueue::busyAtLaunch(ready, active, 1, 0.5), 1);
    // One representable instant earlier the peer is still in service.
    EXPECT_EQ(BatchQueue::busyAtLaunch(ready, active, 1,
                                       std::nextafter(0.5, 0.0)),
              2);
    // Strictly later: idle too.
    EXPECT_EQ(BatchQueue::busyAtLaunch(ready, active, 1, 0.75), 1);
    // Retired peers never count, and the caller always counts once.
    const std::vector<bool> one_left = {false, true};
    EXPECT_EQ(BatchQueue::busyAtLaunch(ready, one_left, 1, 0.1), 1);
}

TEST(BatchQueueTest, AdmissionRespectsBatchCapAndWindow)
{
    BatchQueue::Config cfg;
    cfg.arrivalQps = 10000.0;
    cfg.maxBatch = 32;
    cfg.maxWaitSeconds = 2e-3;
    cfg.horizonSeconds = 0.2;
    cfg.numWorkers = 1;
    BatchQueue queue(cfg);

    const auto service = [](const BatchTicket&, int) { return 1e-4; };
    BatchTicket ticket;
    double completion = 0.0;
    int busy = 0;
    uint64_t served = 0;
    double prev_launch = -1.0;
    uint64_t prev_seq = 0;
    bool first = true;
    while (queue.acquire(0, service, &ticket, &completion, &busy)) {
        EXPECT_LE(ticket.size(), cfg.maxBatch);
        EXPECT_GE(ticket.size(), 1);
        EXPECT_EQ(busy, 1);
        EXPECT_GT(completion, ticket.launchTime);
        // Launches move forward in time and sequence.
        EXPECT_GE(ticket.launchTime, prev_launch);
        if (!first) {
            EXPECT_EQ(ticket.seq, prev_seq + 1);
        }
        for (double arrival : ticket.arrivals) {
            EXPECT_LE(arrival, ticket.launchTime);
            // No sample waits past the batching window before its
            // batch launches, except when the server was backlogged —
            // at this service rate the backlog stays bounded, so
            // allow one service time of slack.
            EXPECT_LE(ticket.launchTime - arrival,
                      cfg.maxWaitSeconds + 64 * 1e-4);
        }
        prev_launch = ticket.launchTime;
        prev_seq = ticket.seq;
        first = false;
        served += static_cast<uint64_t>(ticket.size());
    }
    EXPECT_EQ(served, queue.samplesArrived());
    EXPECT_GT(served, 0u);
}

TEST(BatchQueueTest, DrainsEveryAdmittedSample)
{
    BatchQueue::Config cfg;
    cfg.arrivalQps = 500.0;
    cfg.maxBatch = 16;
    cfg.maxWaitSeconds = 5e-3;
    cfg.horizonSeconds = 0.1;
    cfg.numWorkers = 2;
    BatchQueue queue(cfg);

    // Single-threaded two-worker drain. acquire() blocks until it is
    // the calling worker's virtual turn, so a lone thread must follow
    // the same earliest-ready order the queue enforces.
    const auto service = [](const BatchTicket& t, int) {
        return 1e-3 * static_cast<double>(t.size());
    };
    std::multiset<double> arrivals_seen;
    BatchTicket ticket;
    double completion = 0.0;
    int busy = 0;
    bool active[2] = {true, true};
    double ready[2] = {0.0, 0.0};
    while (active[0] || active[1]) {
        int w = -1;  // active worker with the earliest virtual free time
        for (int v = 0; v < 2; ++v) {
            if (active[v] && (w < 0 || ready[v] < ready[w])) {
                w = v;
            }
        }
        active[w] =
            queue.acquire(w, service, &ticket, &completion, &busy);
        if (active[w]) {
            ready[w] = completion;
            EXPECT_GE(busy, 1);
            EXPECT_LE(busy, 2);
            for (double a : ticket.arrivals) {
                arrivals_seen.insert(a);
            }
        }
    }
    EXPECT_EQ(arrivals_seen.size(), queue.samplesArrived());
}

/**
 * FNV-1a hash over every ticket a BatchQueue run releases, in seq
 * order (seq, launch-time bits, busy count, size, arrival bits), then
 * the arrival count; followed by the queue.launch_batch_full,
 * _window_expired and _drain counts the run added.
 */
std::array<uint64_t, 4>
digestQueue(const BatchQueue::Config& cfg)
{
    const char* launch_counters[] = {"queue.launch_batch_full",
                                     "queue.launch_window_expired",
                                     "queue.launch_drain"};
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    std::array<uint64_t, 4> d = {1469598103934665603ull};
    for (int i = 0; i < 3; ++i) {
        d[i + 1] = reg.counter(launch_counters[i]).value();
    }

    BatchQueue queue(cfg);
    const auto service = [](const BatchTicket& t, int busy) {
        return 1.5e-3 + 2e-5 * static_cast<double>(t.size() * busy);
    };
    using Released = std::map<uint64_t, std::pair<int, BatchTicket>>;
    std::vector<Released> released(static_cast<size_t>(cfg.numWorkers));
    std::vector<std::thread> threads;
    for (int w = 0; w < cfg.numWorkers; ++w) {
        threads.emplace_back([&, w] {
            BatchTicket t;
            double completion = 0.0;
            int busy = 0;
            while (queue.acquire(w, service, &t, &completion, &busy)) {
                released[static_cast<size_t>(w)][t.seq] = {busy, t};
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    const auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            d[0] = (d[0] ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    };
    Released all;
    for (Released& r : released) {
        all.merge(r);
    }
    for (const auto& [seq, r] : all) {
        mix(seq);
        mix(std::bit_cast<uint64_t>(r.second.launchTime));
        mix(static_cast<uint64_t>(r.first));
        mix(static_cast<uint64_t>(r.second.size()));
        for (double a : r.second.arrivals) {
            mix(std::bit_cast<uint64_t>(a));
        }
    }
    mix(queue.samplesArrived());
    for (int i = 0; i < 3; ++i) {
        d[i + 1] = reg.counter(launch_counters[i]).value() - d[i + 1];
    }
    return d;
}

TEST(BatchQueueTest, TicketDigestsArePinned)
{
    // Every ticket the queue releases, and which admission rule
    // launched it, against constants recorded before the rule moved
    // into serve/admission.h: batch-full, window, drain and trace
    // mode (bursts with exact timestamp ties, plus an entry past the
    // horizon), each at one and three workers.
    const auto config = [](double qps, int64_t max_batch, double wait) {
        BatchQueue::Config cfg;
        cfg.arrivalQps = qps;
        cfg.maxBatch = max_batch;
        cfg.maxWaitSeconds = wait;
        cfg.horizonSeconds = 0.1;
        cfg.seed = 11;
        return cfg;
    };
    BatchQueue::Config traced = config(1.0, 8, 2e-3);
    traced.horizonSeconds = 0.05;
    traced.useArrivalTrace = true;
    for (int burst = 0; burst < 40; ++burst) {
        for (int j = 0; j < 1 + burst % 7; ++j) {
            traced.arrivalTrace.push_back(1.3e-3 * burst + 1e-4 * (j / 2));
        }
    }
    traced.arrivalTrace.push_back(0.2);
    const BatchQueue::Config full = config(80000.0, 16, 5e-3);
    const BatchQueue::Config window = config(3000.0, 256, 1e-3);
    const BatchQueue::Config drain = config(30000.0, 64, 1.0);
    struct Pinned {
        BatchQueue::Config cfg;
        int workers;
        std::array<uint64_t, 4> digest;  // hash, full, window, drain
    };
    const Pinned pinned[] = {
        {full, 1, {0xeac3ab3181318797ull, 507, 0, 1}},
        {window, 1, {0xbb5bb11108c3036cull, 0, 59, 1}},
        {drain, 1, {0xcd2a7c424d8ed18dull, 46, 0, 1}},
        {traced, 1, {0x9f410f5032cc7274ull, 10, 12, 1}},
        {full, 3, {0xfa17ed45b07fb412ull, 507, 0, 1}},
        {window, 3, {0xa3140c946de41dc8ull, 0, 73, 1}},
        {drain, 3, {0x19f81e8c547538d1ull, 46, 0, 1}},
        {traced, 3, {0x7062daabf617bfadull, 10, 12, 1}},
    };
    for (Pinned p : pinned) {
        p.cfg.numWorkers = p.workers;
        EXPECT_EQ(digestQueue(p.cfg), p.digest)
            << "max batch " << p.cfg.maxBatch << ", " << p.workers
            << " workers";
    }
}

TEST(AdmissionStepTest, OneCasePerOutcome)
{
    using A = AdmitAction;
    const double inf = kWholeStreamKnown;
    const std::optional<double> none;
    struct Case {
        const char* what;
        double t;
        int64_t pending;
        double oldest;
        std::optional<double> next;
        double frontier;
        A action;
        double at;
        int64_t batch;
    };
    // maxBatch 8, window 0.25; 0.5 + 0.25 == 0.75 exactly.
    const Case cases[] = {
        {"full, even past the cap", 0.5, 10, 0.0, 0.5, inf, A::kLaunchFull,
         0.5, 8},
        {"stream over: drain", 0.5, 3, 0.49, none, inf, A::kLaunchDrain,
         0.5, 3},
        {"stream over, nothing pending: retire", 0.5, 0, 0.0, none, inf,
         A::kRetire, 0.5, 0},
        {"empty queue: jump to the next arrival", 0.5, 0, 0.0, 0.7, inf,
         A::kAdmitNext, 0.7, 0},
        {"an arrival exactly at expiry is admitted first", 0.6, 1, 0.5,
         0.75, inf, A::kAdmitNext, 0.75, 0},
        {"then the window launches at that instant", 0.75, 2, 0.5, 0.9,
         inf, A::kLaunchWindow, 0.75, 2},
        {"window expires before the next arrival", 0.6, 2, 0.5, 0.9, inf,
         A::kLaunchWindow, 0.75, 2},
        {"window already expired at t", 2.0, 3, 0.5, 2.0, inf,
         A::kLaunchWindow, 2.0, 3},
        {"stall: stream open, nothing known", 0.5, 0, 0.0, none, 0.6,
         A::kStall, 0.5, 0},
        {"stall: expiry at the frontier", 0.6, 1, 0.5, none, 0.75,
         A::kStall, 0.6, 0},
        {"frontier past expiry: window launch", 0.6, 1, 0.5, none,
         std::nextafter(0.75, 1.0), A::kLaunchWindow, 0.75, 1},
    };
    for (const Case& c : cases) {
        const Admission a = admissionStep(c.t, c.pending, c.oldest, c.next,
                                          c.frontier, 8, 0.25);
        EXPECT_EQ(a.action, c.action) << c.what;
        EXPECT_EQ(a.t, c.at) << c.what;
        EXPECT_EQ(a.batch, c.batch) << c.what;
    }
}

TEST_F(ServingEngineTest, RunTraceReproducesRunFromTheSameClock)
{
    // A trace drawn from the same seeded Poisson clock the engine
    // would use internally must reproduce run() bit for bit — the
    // contract the fleet simulator's per-node replay rests on.
    EngineConfig cfg;
    cfg.numWorkers = 3;
    cfg.arrivalQps = 9000.0;
    cfg.maxBatch = 64;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.25;
    cfg.seed = 17;

    ServingNode node(&sched_, ModelId::kRM1, 0);
    const EngineResult generated = node.run(cfg);

    std::vector<double> trace;
    PoissonProcess clock(cfg.arrivalQps, cfg.seed);
    for (double t = clock.next(); t < cfg.simSeconds;
         t = clock.next()) {
        trace.push_back(t);
    }
    ASSERT_EQ(trace.size(), generated.aggregate.samplesArrived);

    ServingNode replay(&sched_, ModelId::kRM1, 0);
    const EngineResult replayed = replay.runTrace(cfg, trace);

    EXPECT_EQ(replayed.aggregate.samplesArrived,
              generated.aggregate.samplesArrived);
    EXPECT_EQ(replayed.aggregate.samplesServed,
              generated.aggregate.samplesServed);
    EXPECT_EQ(replayed.aggregate.batchesServed,
              generated.aggregate.batchesServed);
    EXPECT_DOUBLE_EQ(replayed.aggregate.meanLatency,
                     generated.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.p50Latency,
                     generated.aggregate.p50Latency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.p99Latency,
                     generated.aggregate.p99Latency);
    EXPECT_DOUBLE_EQ(replayed.aggregate.utilization,
                     generated.aggregate.utilization);
    EXPECT_DOUBLE_EQ(replayed.aggregate.meanBatch,
                     generated.aggregate.meanBatch);
}

TEST_F(ServingEngineTest, RemoteSurchargeStretchesServiceDeterministically)
{
    // The placement surcharge prices remote embedding fetches into
    // each batch's virtual service time: zero surcharge is the legacy
    // engine bit for bit, a positive surcharge can only slow serving.
    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.arrivalQps = 6000.0;
    cfg.maxBatch = 128;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.25;
    cfg.seed = 5;

    ServingNode legacy(&sched_, ModelId::kRM1, 0);
    const EngineResult baseline = legacy.run(cfg);

    cfg.remoteSecondsPerSample = 0.0;
    ServingNode zero(&sched_, ModelId::kRM1, 0);
    const EngineResult same = zero.run(cfg);
    EXPECT_DOUBLE_EQ(same.aggregate.meanLatency,
                     baseline.aggregate.meanLatency);
    EXPECT_DOUBLE_EQ(same.aggregate.p99Latency, baseline.aggregate.p99Latency);

    cfg.remoteSecondsPerSample = 5e-6;
    ServingNode taxed(&sched_, ModelId::kRM1, 0);
    const EngineResult slower = taxed.run(cfg);
    EXPECT_EQ(slower.aggregate.samplesArrived,
              baseline.aggregate.samplesArrived);
    EXPECT_GT(slower.aggregate.meanLatency, baseline.aggregate.meanLatency);
    EXPECT_GE(slower.aggregate.utilization, baseline.aggregate.utilization);
}

}  // namespace
}  // namespace recstack
