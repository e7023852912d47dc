#ifndef RECSTACK_UARCH_BRANCH_PREDICTOR_H_
#define RECSTACK_UARCH_BRANCH_PREDICTOR_H_

/**
 * @file
 * Gshare branch predictor: global history XOR PC indexing a table of
 * 2-bit saturating counters. Broadwell and Cascade Lake differ in
 * table size, history length and redirect penalty (platform config),
 * carrying the paper's observed bad-speculation reduction (Fig. 15).
 */

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "profile/kernel_profile.h"

namespace recstack {

/** Gshare predictor with 2-bit counters. */
class GsharePredictor
{
  public:
    GsharePredictor(int table_bits, int history_bits);

    /** Predicted direction for the branch at @c pc. */
    bool predict(uint64_t pc) const { return table_[index(pc)] >= 2; }

    /** Train with the resolved outcome; returns true on mispredict. */
    bool predictAndUpdate(uint64_t pc, bool taken)
    {
        uint8_t& counter = table_[index(pc)];
        const bool predicted = counter >= 2;
        if (taken && counter < 3) {
            ++counter;
        } else if (!taken && counter > 0) {
            --counter;
        }
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
        return predicted != taken;
    }

    void reset();

  private:
    uint64_t index(uint64_t pc) const
    {
        const uint64_t mask = (1ull << tableBits_) - 1;
        return ((pc >> 2) ^ history_) & mask;
    }

    int tableBits_;
    uint64_t history_ = 0;
    uint64_t historyMask_;
    std::vector<uint8_t> table_;
};

/** Outcome of simulating (a sample of) one BranchStream. */
struct BranchSimResult {
    uint64_t simulated = 0;
    uint64_t mispredicts = 0;

    double mispredictRate() const
    {
        return simulated ? static_cast<double>(mispredicts) /
                           static_cast<double>(simulated)
                         : 0.0;
    }
};

/**
 * Drive a synthetic outcome stream through the predictor.
 *
 * Outcomes mix a deterministic loop pattern (period derived from the
 * taken probability) with i.i.d. draws according to the stream's
 * @c randomness, reproducing the well-predicted-GEMM-loop vs
 * data-dependent-embedding-segment dichotomy the paper reports.
 *
 * @param pc_base  stable identity of the branch group
 * @param max_sim  cap on simulated branches (results are rates)
 * @param loop_predictor model a loop-pattern side predictor (newer
 *        microarchitectures): deterministic periodic outcomes are
 *        predicted correctly after one warmup period.
 */
BranchSimResult simulateBranchStream(GsharePredictor& bp,
                                     const BranchStream& stream,
                                     uint64_t pc_base, Rng& rng,
                                     uint64_t max_sim = 2048,
                                     bool loop_predictor = false);

}  // namespace recstack

#endif  // RECSTACK_UARCH_BRANCH_PREDICTOR_H_
