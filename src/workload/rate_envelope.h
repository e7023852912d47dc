#ifndef RECSTACK_WORKLOAD_RATE_ENVELOPE_H_
#define RECSTACK_WORKLOAD_RATE_ENVELOPE_H_

/**
 * @file
 * Rate envelopes: deterministic time-varying arrival-rate modulation.
 *
 * Production recommendation traffic is not stationary — fleets absorb
 * diurnal swings where the trough runs at a fraction of the peak
 * (Gupta et al., arXiv 1906.03109). A RateEnvelope is a pure function
 * multiplier(t) in (0, 1] that scales a base arrival rate over time;
 * ModulatedPoissonProcess layers it on the shared PoissonProcess via
 * thinning (Lewis & Shedler): candidates are drawn from a homogeneous
 * process at the peak rate and accepted with probability
 * multiplier(t), which samples exactly the non-homogeneous Poisson
 * process with rate base * multiplier(t). Everything is seeded, so
 * the same seed replays the identical arrival sequence — the fleet
 * simulator and any differential test see the same stream.
 */

#include <cstdint>
#include <vector>

#include "workload/batch_generator.h"

namespace recstack {

/**
 * Deterministic rate multiplier over time, normalized so the peak is
 * exactly 1.0 (the thinning envelope bound).
 */
class RateEnvelope
{
  public:
    /** Flat multiplier 1.0 — modulation disabled. */
    static RateEnvelope constant();

    /**
     * Sinusoidal diurnal swing: multiplier(t) = trough +
     * (1 - trough) * (1 + cos(2*pi*(t - peakTime)/period)) / 2, i.e.
     * 1.0 at @c peak_time_seconds, @c trough_fraction half a period
     * later.
     *
     * @param period_seconds   full day length in virtual seconds (> 0)
     * @param trough_fraction  trough rate as a fraction of peak,
     *                         in (0, 1]
     * @param peak_time_seconds virtual time of the first peak
     */
    static RateEnvelope diurnal(double period_seconds,
                                double trough_fraction,
                                double peak_time_seconds = 0.0);

    /**
     * Piecewise-linear envelope through (time, multiplier) knots
     * (times strictly increasing, multipliers in (0, 1], at least one
     * knot equal to 1.0 after normalization — the constructor rescales
     * so the maximum knot is exactly 1.0). Before the first knot the
     * first value holds; after the last knot the last value holds.
     */
    static RateEnvelope piecewise(std::vector<double> times,
                                  std::vector<double> multipliers);

    /** Multiplier at virtual time @c t, in (0, 1]. */
    double at(double t) const;

    /** True for the constant() envelope (thinning can be skipped). */
    bool isConstant() const { return kind_ == Kind::kConstant; }

  private:
    enum class Kind { kConstant, kDiurnal, kPiecewise };

    RateEnvelope() = default;

    Kind kind_ = Kind::kConstant;
    double period_ = 86400.0;
    double trough_ = 1.0;
    double peakTime_ = 0.0;
    std::vector<double> times_;
    std::vector<double> values_;
};

/**
 * Non-homogeneous Poisson arrival clock: rate(t) = base * envelope(t),
 * sampled by thinning a homogeneous PoissonProcess at the base
 * (= peak) rate. With the constant() envelope no acceptance draws are
 * made, so the timestamp stream is bit-identical to
 * PoissonProcess(base, seed) — existing consumers can switch to the
 * modulated clock without perturbing any golden sequence.
 */
class ModulatedPoissonProcess
{
  public:
    /**
     * @param base_rate_qps peak arrival rate (> 0); the instantaneous
     *                      rate is base_rate_qps * envelope.at(t)
     * @param envelope      rate envelope (multiplier <= 1 everywhere)
     * @param seed          RNG seed; same seed => same stream
     */
    ModulatedPoissonProcess(double base_rate_qps, RateEnvelope envelope,
                            uint64_t seed);

    /** Timestamp of the next accepted arrival (strictly increasing). */
    double next();

    const RateEnvelope& envelope() const { return envelope_; }

  private:
    PoissonProcess process_;
    RateEnvelope envelope_;
    Rng accept_;
};

}  // namespace recstack

#endif  // RECSTACK_WORKLOAD_RATE_ENVELOPE_H_
