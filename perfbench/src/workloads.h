#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four workloads. Each one sets the program up several times
 * (setup_s is the median), measures for the requested seconds, checks
 * every output, and fills a Report. End-to-end metrics come from
 * untraced operations only; with --trace every second operation is
 * traced and gives the per-layer metrics.
 * METRICS.md says why each workload exists and what each metric means.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "tracer.h"

namespace recstack {
class Workspace;
class Tensor;
}  // namespace recstack

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Reduced models and grids for the self-test.
    bool tiny = false;
    /// Corrupt one output before its check (self-test of error_rate).
    bool corrupt = false;
    /// Writable scratch directory inside the checkout.
    std::string runDir;
    /// Reference digests of the characterize grid.
    std::string reference;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * With --trace, every second operation (k = 1, 3, ...) runs traced and
 * the others untraced, so host drift during the run biases neither
 * side of the tracing-overhead comparison.
 */
inline bool
tracedTurn(const Options& opts, uint64_t k)
{
    return opts.trace && k % 2 == 1;
}

/** Timed operations of one kind of turn (traced or untraced). */
struct Samples {
    std::vector<double> latencies;  ///< seconds of the timed call
    std::vector<double> items;      ///< work items per operation
    std::vector<double> timed;      ///< seconds counted for throughput

    void add(double latency, double n, double seconds)
    {
        latencies.push_back(latency);
        items.push_back(n);
        timed.push_back(seconds);
    }
    /** Items per timed second over every operation. */
    double rate() const;
};

/** Mix a workload-specific stream id into the run seed. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** Bytes of a materialized tensor (float, int32 or int64 payload). */
const void* tensorBytes(const recstack::Tensor& t);

/** True when two tensors have equal shape, dtype and payload bytes. */
bool bitEqual(const recstack::Tensor& a, const recstack::Tensor& b);

/** Copy every blob of @c from into @c to (deep copies). */
void installBlobs(const recstack::Workspace& from, recstack::Workspace& to);

/**
 * throughput_per_s (median of the slice rates), latency_p50_ms and
 * latency_tail_ms of the untraced operations.
 */
void addEndToEnd(Report& report, const Samples& untraced, double tailPct);

/**
 * Per-layer self-time shares of the traced operations, plus the cost
 * of tracing: 1 - traced throughput / untraced throughput.
 */
void addTraceLayers(Report& report, const Tracer& tracer,
                    const Samples& untraced, const Samples& traced);

/**
 * ops.<OpType>_s (kernel seconds per request, from
 * OpExecRecord::hostSeconds by CompiledNet op type; types without a
 * catalog entry sum into ops.other_s) and ops.fc_gflops.
 */
void addOpMetrics(Report& report,
                  const std::map<std::string, double>& opSeconds,
                  double fcFlops, double fcSeconds, uint64_t requests);

void runCharacterize(const Options& opts, Report& report);
void runInferLarge(const Options& opts, Report& report);
void runServeSmall(const Options& opts, Report& report);
void runStoreDisk(const Options& opts, Report& report);

/** Regenerate the characterize reference digests (both sizes). */
void writeCharacterizeReference(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
