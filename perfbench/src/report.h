#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/**
 * @file
 * What one benchmark run reports: operations attempted and failed, and
 * named metrics with unit and sample count. The last line a run prints
 * is Report::resultJson(), the machine-readable result.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One named measurement. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// How many samples the value summarizes (requests, passes, ...).
    uint64_t samples = 0;
    /// Free-form qualifier: the tail percentile, "computed", ...
    std::string note;
};

/** A metric's catalog entry (see catalog()). */
struct MetricSpec {
    const char* name;
    const char* unit;
    bool endToEnd;
};

/**
 * Every metric the benchmark can print, end-to-end first. A traced run
 * prints every per-layer entry, 0 where its workload does not exercise
 * that layer; an untraced run prints every end-to-end entry.
 */
const std::vector<MetricSpec>& catalog();

/** Operations and metrics of one run. */
class Report
{
  public:
    /** Record a metric; the unit must match the catalog entry. */
    void add(const std::string& name, double value, uint64_t samples,
             const std::string& note = "");

    /** Count one attempted operation. */
    void attempt(uint64_t n = 1) { attempted_ += n; }

    /** Count one failed operation (keeps the first few reasons). */
    void fail(const std::string& why);

    /**
     * Fill every catalog metric of the run's kind that was not added
     * with 0 (per-layer) — an end-to-end metric must be measured.
     */
    void completePerLayer();

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<Metric>& metrics() const { return metrics_; }

    /** Human-readable lines: one per metric, then the failures. */
    std::string humanText() const;

    /** {"correct":..,"attempted":..,"failed":..,"metrics":{...}} */
    std::string resultJson(bool trace) const;

  private:
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, p in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double p);

/**
 * The tail percentile of a sample: @c preferred when at least ten
 * samples lie beyond it, else the highest lower percentile of the
 * ladder 0.99 / 0.95 / 0.9 / 0.8 / 0.75 / 0.5 with ten beyond (0.5 as a last
 * resort). Each workload fixes @c preferred from its expected sample
 * count, so the reported percentile does not flip between runs.
 */
struct Tail {
    double value = 0.0;
    double pct = 0.0;
};
Tail tail(const std::vector<double>& v, double preferred);

/** "p90" for 0.9. */
std::string pctName(double pct);

/**
 * Rates (items / seconds) of the timed operations split into at most
 * ten consecutive groups. Their median is the reported throughput, so
 * a burst of host noise moves only the groups it overlaps.
 */
std::vector<double> sliceRates(const std::vector<double>& items,
                               const std::vector<double>& seconds);

/** JSON string literal of @c s. */
std::string jsonString(const std::string& s);

/** A double printed with all its digits. */
std::string jsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
