#ifndef RECSTACK_COMMON_STATS_H_
#define RECSTACK_COMMON_STATS_H_

/**
 * @file
 * Small numeric helpers shared across the characterization pipeline:
 * running summaries, geometric means and sample percentiles.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace recstack {

/** Online mean / variance / min / max accumulator (Welford). */
class RunningStat
{
  public:
    void add(double x);

    size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Geometric mean of a sequence of positive values. */
double geomean(const std::vector<double>& values);

/**
 * Linearly-interpolated p-quantile (p in [0, 1]) of an ascending
 * sorted sample; 0 on an empty sample. Shared by the serving
 * simulator and the multi-worker serving engine so both report
 * identical tail definitions.
 */
double percentileOfSorted(const std::vector<double>& sorted, double p);

}  // namespace recstack

#endif  // RECSTACK_COMMON_STATS_H_
