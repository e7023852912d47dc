/**
 * @file
 * Tests of the heterogeneity-aware QueryScheduler.
 */

#include <gtest/gtest.h>

#include "sched/query_scheduler.h"

namespace recstack {
namespace {

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : sweep_(allPlatforms(),
                 []() {
                     ModelOptions opts = tinyOptions();
                     opts.tableScale = 0.01;
                     return opts;
                 }()),
          sched_(&sweep_, {1, 16, 256, 4096})
    {
    }

    SweepCache sweep_;
    QueryScheduler sched_;
};

TEST_F(SchedulerTest, LatencyAtGridPointsMatchesSweep)
{
    for (int64_t batch : sched_.batchGrid()) {
        EXPECT_DOUBLE_EQ(sched_.latency(ModelId::kRM1, 0, batch),
                         sweep_.get(ModelId::kRM1, 0, batch).seconds);
    }
}

TEST_F(SchedulerTest, LatencyInterpolatesBetweenKnots)
{
    const double lo = sched_.latency(ModelId::kRM1, 0, 16);
    const double hi = sched_.latency(ModelId::kRM1, 0, 256);
    const double mid = sched_.latency(ModelId::kRM1, 0, 136);
    EXPECT_GT(mid, std::min(lo, hi));
    EXPECT_LT(mid, std::max(lo, hi));
    EXPECT_NEAR(mid, lo + (hi - lo) * (136.0 - 16.0) / 240.0, 1e-12);
}

TEST_F(SchedulerTest, LatencyMonotoneInBatch)
{
    double prev = 0.0;
    for (int64_t b : {1, 8, 32, 100, 256, 1000, 4096}) {
        const double lat = sched_.latency(ModelId::kRM2, 0, b);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST_F(SchedulerTest, ExtrapolatesBeyondGrid)
{
    const double at_grid_end = sched_.latency(ModelId::kRM1, 0, 4096);
    const double beyond = sched_.latency(ModelId::kRM1, 0, 8192);
    EXPECT_GT(beyond, at_grid_end);
}

TEST_F(SchedulerTest, SinglePointGridExtrapolatesFlat)
{
    // Regression: a 1-point grid used to read batchGrid_[size() - 2]
    // (out of bounds) for any batch above the single knot. The fix
    // falls back to flat extrapolation.
    QueryScheduler one_knot(&sweep_, {16});
    const double at_knot = sweep_.get(ModelId::kRM1, 0, 16).seconds;
    EXPECT_DOUBLE_EQ(one_knot.latency(ModelId::kRM1, 0, 16), at_knot);
    EXPECT_DOUBLE_EQ(one_knot.latency(ModelId::kRM1, 0, 17), at_knot);
    EXPECT_DOUBLE_EQ(one_knot.latency(ModelId::kRM1, 0, 4096), at_knot);
    EXPECT_DOUBLE_EQ(one_knot.latency(ModelId::kRM1, 0, 1), at_knot);
}

TEST_F(SchedulerTest, SinglePointGridRoutesAndCapsSla)
{
    // The routing/throughput entry points must also survive a 1-point
    // grid (they all funnel through latency()).
    QueryScheduler one_knot(&sweep_, {256});
    const ScheduleDecision d = one_knot.route(ModelId::kWnD, 1024, 1.0);
    EXPECT_TRUE(d.meetsSla);
    const ThroughputPoint tp =
        one_knot.bestThroughputUnderSla(ModelId::kWnD, 1.0);
    EXPECT_TRUE(tp.feasible);
    EXPECT_EQ(tp.batch, 256);
}

TEST_F(SchedulerTest, RoutePicksFastestPlatform)
{
    const ScheduleDecision d = sched_.route(ModelId::kRM3, 256, 1.0);
    for (size_t p = 0; p < sweep_.platforms().size(); ++p) {
        EXPECT_LE(d.expectedLatency,
                  sched_.latency(ModelId::kRM3, p, 256) + 1e-15);
    }
    EXPECT_TRUE(d.meetsSla);  // 1 second is generous
}

TEST_F(SchedulerTest, RouteFlagsSlaViolation)
{
    const ScheduleDecision d = sched_.route(ModelId::kRM2, 4096, 1e-9);
    EXPECT_FALSE(d.meetsSla);
}

TEST_F(SchedulerTest, MaxBatchUnderSlaRespectsBudget)
{
    // Pick an SLA between the batch-16 and batch-256 latencies.
    const double s16 = sched_.latency(ModelId::kRM1, 0, 16);
    const double s256 = sched_.latency(ModelId::kRM1, 0, 256);
    const double sla = (s16 + s256) / 2.0;
    const int64_t max_batch =
        sched_.maxBatchUnderSla(ModelId::kRM1, 0, sla);
    EXPECT_EQ(max_batch, 16);
    EXPECT_EQ(sched_.maxBatchUnderSla(ModelId::kRM1, 0, 1e-12), 0);
}

TEST_F(SchedulerTest, BestThroughputFeasibleAndOptimal)
{
    const ThroughputPoint tp =
        sched_.bestThroughputUnderSla(ModelId::kWnD, 0.5);
    ASSERT_TRUE(tp.feasible);
    EXPECT_LE(tp.latencySeconds, 0.5);
    EXPECT_GT(tp.samplesPerSecond, 0.0);
    // No grid point under the SLA beats it.
    for (size_t p = 0; p < sweep_.platforms().size(); ++p) {
        for (int64_t b : sched_.batchGrid()) {
            const double lat = sched_.latency(ModelId::kWnD, p, b);
            if (lat <= 0.5) {
                EXPECT_LE(static_cast<double>(b) / lat,
                          tp.samplesPerSecond + 1e-9);
            }
        }
    }
}

TEST_F(SchedulerTest, ImpossibleSlaInfeasible)
{
    const ThroughputPoint tp =
        sched_.bestThroughputUnderSla(ModelId::kDIN, 1e-12);
    EXPECT_FALSE(tp.feasible);
    EXPECT_EQ(tp.samplesPerSecond, 0.0);
}

TEST_F(SchedulerTest, LooseSlaPrefersLargeBatchAccelerator)
{
    // With a loose SLA the best throughput point uses a large batch;
    // for the FC-heavy WnD that lands on a GPU (Fig. 5's right side).
    const ThroughputPoint tp =
        sched_.bestThroughputUnderSla(ModelId::kWnD, 10.0);
    ASSERT_TRUE(tp.feasible);
    EXPECT_GE(tp.batch, 256);
    const auto& platform = sweep_.platforms()[tp.platformIdx];
    EXPECT_EQ(platform.kind, PlatformKind::kGpu);
}

TEST(ExtrapolateAboveGrid, NoisySegmentNeverGoesNegative)
{
    // Regression: with a noisy last segment (s1 < s0) the raw linear
    // extrapolation has negative slope and, far enough above the
    // grid, predicted *negative* latency. The clamp floors the
    // prediction at the last knot's per-sample scaling.
    const double far =
        extrapolateLatencyAboveGrid(256, 1.0, 4096, 0.9, 1 << 20);
    EXPECT_GT(far, 0.0);
    EXPECT_DOUBLE_EQ(far, 0.9 * static_cast<double>(1 << 20) / 4096.0);
}

TEST(ExtrapolateAboveGrid, FloorIsPerSampleScalingOfLastKnot)
{
    // Just above the grid the negative-slope line is still positive
    // but already below s1's per-sample scaling; the floor binds
    // everywhere, not only once the line crosses zero.
    const double just_above =
        extrapolateLatencyAboveGrid(256, 1.0, 4096, 0.9, 5000);
    EXPECT_DOUBLE_EQ(just_above, 0.9 * 5000.0 / 4096.0);
}

TEST(ExtrapolateAboveGrid, SuperlinearSegmentKeepsLinearContinuation)
{
    // When the last segment is steeper than per-sample scaling the
    // linear continuation lies above the floor and is kept as-is:
    // b0=1 s0=0.5, b1=2 s1=1.5 -> slope 1.0/sample; at batch 4 the
    // line gives 3.5 while the floor is only 1.5 * 4 / 2 = 3.0.
    EXPECT_DOUBLE_EQ(extrapolateLatencyAboveGrid(1, 0.5, 2, 1.5, 4),
                     3.5);
}

TEST(SchedulerRouteTie, ResolvesToLowestPlatformIndex)
{
    // Two byte-identical platforms produce exactly equal latencies at
    // every batch; route() must deterministically keep the first.
    const Platform twin = allPlatforms()[0];
    SweepCache sweep({twin, twin}, []() {
        ModelOptions opts = tinyOptions();
        opts.tableScale = 0.01;
        return opts;
    }());
    QueryScheduler sched(&sweep, {16, 256});
    ASSERT_DOUBLE_EQ(sched.latency(ModelId::kRM1, 0, 64),
                     sched.latency(ModelId::kRM1, 1, 64));
    const ScheduleDecision d = sched.route(ModelId::kRM1, 64, 1.0);
    EXPECT_EQ(d.platformIdx, 0u);
}

TEST_F(SchedulerTest, InfeasibleSlaReportsEmptyOperatingPoint)
{
    const ThroughputPoint tp =
        sched_.bestThroughputUnderSla(ModelId::kDIEN, 1e-15);
    EXPECT_FALSE(tp.feasible);
    EXPECT_EQ(tp.samplesPerSecond, 0.0);
    EXPECT_EQ(tp.batch, 0);
}

TEST_F(SchedulerTest, RejectsBadInputs)
{
    EXPECT_DEATH(sched_.latency(ModelId::kRM1, 0, 0), "positive");
    EXPECT_DEATH(sched_.setThreshold(PlatformKind::kGpu, ModelId::kRM1, 0),
                 "positive");
    EXPECT_DEATH(QueryScheduler(nullptr), "sweep cache");
    SweepCache local(allPlatforms(), tinyOptions());
    EXPECT_DEATH(QueryScheduler(&local, {16, 4, 1}), "ascending");
}

}  // namespace
}  // namespace recstack
