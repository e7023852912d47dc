/**
 * @file
 * Extension bench: overhead of the runtime observability layer.
 *
 * Not a paper figure — this quantifies the cost of the
 * instrumentation added for the paper-style characterization
 * workflow (docs/observability.md quotes these numbers):
 *
 *  1. disabled-span cost: a hot loop executing RECSTACK_SPAN with
 *     tracing off, vs the same loop with no macro at all;
 *  2. enabled-span cost: the same loop with tracing on (clock reads +
 *     one buffer slot per span);
 *  3. counter/histogram update cost per operation;
 *  4. end-to-end serving: a profile-mode engine run with tracing off
 *     vs on, confirming the virtual-time statistics are identical
 *     either way (instrumentation must never perturb what it
 *     measures).
 */

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sched/query_scheduler.h"
#include "serve/serving_node.h"

namespace recstack {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Opaque sink so the compiler cannot elide the measured loop bodies.
volatile uint64_t g_sink = 0;

constexpr int kSpanIters = 2000000;

double
baselineLoopSeconds()
{
    const auto start = Clock::now();
    for (int i = 0; i < kSpanIters; ++i) {
        g_sink = g_sink + 1;
    }
    return secondsSince(start);
}

double
spanLoopSeconds()
{
    const auto start = Clock::now();
    for (int i = 0; i < kSpanIters; ++i) {
        RECSTACK_SPAN("bench.span");
        g_sink = g_sink + 1;
    }
    return secondsSince(start);
}

int
runBench()
{
    bench::banner("EXT-OBS",
                  "observability overhead: spans, metrics, serving");

    // -- span macro cost, disabled vs enabled ------------------------
    obs::setTraceEnabled(false);
    obs::TraceBuffer::global().clear();
    const double base_s = baselineLoopSeconds();
    const double off_s = spanLoopSeconds();
    const size_t writes_while_off = obs::TraceBuffer::global().size();

    obs::setTraceEnabled(true);
    const double on_s = spanLoopSeconds();
    obs::setTraceEnabled(false);
    const size_t writes_while_on = obs::TraceBuffer::global().size() +
                                   static_cast<size_t>(
                                       obs::TraceBuffer::global()
                                           .dropped());

    const double off_ns =
        (off_s - base_s) / kSpanIters * 1e9;
    const double on_ns = (on_s - base_s) / kSpanIters * 1e9;
    std::printf("\nspan macro (%d iterations):\n", kSpanIters);
    std::printf("  bare loop        %8.1f ms\n", base_s * 1e3);
    std::printf("  spans disabled   %8.1f ms  (~%.1f ns/span)\n",
                off_s * 1e3, off_ns);
    std::printf("  spans enabled    %8.1f ms  (~%.1f ns/span)\n",
                on_s * 1e3, on_ns);

    // -- metric update cost ------------------------------------------
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("bench.counter");
    obs::LatencyHistogram& hist =
        registry.histogram("bench.hist", 0.0, 1.0, 1000);
    auto start = Clock::now();
    for (int i = 0; i < kSpanIters; ++i) {
        counter.add();
    }
    const double counter_ns = secondsSince(start) / kSpanIters * 1e9;
    start = Clock::now();
    for (int i = 0; i < kSpanIters; ++i) {
        hist.record(static_cast<double>(i & 1023) / 1024.0);
    }
    const double hist_ns = secondsSince(start) / kSpanIters * 1e9;
    std::printf("\nmetric updates:\n");
    std::printf("  counter.add      %8.1f ns/op\n", counter_ns);
    std::printf("  histogram.record %8.1f ns/op\n", hist_ns);

    // -- end-to-end serving run, tracing off vs on -------------------
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    SweepCache sweep(allPlatforms(), opts);
    QueryScheduler sched(&sweep, {1, 16, 256, 4096});
    ServingNode engine(&sched, ModelId::kRM1, bench::kBdw);
    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.arrivalQps = 2000.0;
    cfg.maxBatch = 64;
    cfg.simSeconds = 0.25;

    obs::TraceBuffer::global().clear();
    cfg.captureTrace = false;
    const EngineResult off_run = engine.run(cfg);
    cfg.captureTrace = true;
    const EngineResult on_run = engine.run(cfg);
    const size_t serving_spans = obs::TraceBuffer::global().size();
    obs::TraceBuffer::global().clear();

    std::printf("\nserving run (4 workers, RM1, profile mode):\n");
    std::printf("  p99 latency   off %.6f s   on %.6f s\n",
                off_run.aggregate.p99Latency,
                on_run.aggregate.p99Latency);
    std::printf("  spans captured with tracing on: %zu\n",
                serving_spans);

    bench::checkHeader();
    bench::check(writes_while_off == 0,
                 "disabled spans write nothing to the trace buffer");
    bench::checkHostTimed(off_ns < 50.0,
                          "disabled span costs <50 ns (one relaxed "
                          "atomic load)");
    bench::check(writes_while_on ==
                     static_cast<size_t>(kSpanIters),
                 "enabled spans account for every iteration "
                 "(committed + dropped)");
    bench::checkHostTimed(counter_ns < 100.0 && hist_ns < 200.0,
                          "metric updates are lock-free-cheap on the hot "
                          "path");
    bench::check(off_run.aggregate.p99Latency ==
                         on_run.aggregate.p99Latency &&
                     off_run.aggregate.samplesServed ==
                         on_run.aggregate.samplesServed,
                 "tracing does not perturb virtual-time serving "
                 "statistics");
    bench::check(serving_spans > 0,
                 "captureTrace records spans from the serving stack");
    return bench::exitStatus();
}

}  // namespace
}  // namespace recstack

int
main()
{
    return recstack::runBench();
}
