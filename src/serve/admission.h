#ifndef RECSTACK_SERVE_ADMISSION_H_
#define RECSTACK_SERVE_ADMISSION_H_

/**
 * @file
 * The dynamic-batching admission rule, as one pure step.
 *
 * A worker that becomes free at virtual time t first admits every
 * known arrival at or before t, then walks time forward one step at a
 * time until a batch launches (batch-full, window-expired or drain) or
 * the worker retires. BatchQueue::acquire (the threaded node) and the
 * fleet twin's VirtualNode (fleet/fleet_sim.cc) are loops over this
 * step that only apply its effects.
 *
 * The frontier is the time before which every arrival is known:
 * kWholeStreamKnown for BatchQueue and for a twin whose stream has
 * ended, the arrival being routed while a fleet is still routing. A
 * decision that an arrival at or after the frontier could still
 * change stalls instead.
 */

#include <cstdint>
#include <limits>
#include <optional>

namespace recstack {

/** What the walk does next. */
enum class AdmitAction {
    kAdmitNext,     ///< admit the next known arrival, at its time
    kLaunchFull,    ///< pending reached maxBatch
    kLaunchWindow,  ///< the oldest pending sample waited maxWait
    kLaunchDrain,   ///< stream over, samples pending
    kRetire,        ///< stream over, nothing pending
    kStall,         ///< an unknown arrival could change the decision
};

/** One step of the walk. */
struct Admission {
    AdmitAction action;
    double t;           ///< the walk's new virtual time
    int64_t batch = 0;  ///< samples a launch takes, oldest first
};

/// Frontier of a fully known arrival stream.
inline constexpr double kWholeStreamKnown =
    std::numeric_limits<double>::infinity();

/**
 * @param t         the walk's virtual time
 * @param pending   admitted samples waiting for a batch
 * @param oldest    arrival of the oldest pending sample (read only
 *                  when pending > 0)
 * @param next      next known, not yet admitted arrival, if any
 * @param frontier  every arrival before it is known
 * @param max_batch dynamic-batching cap
 * @param max_wait  batching window, seconds; an arrival exactly at
 *                  the window's expiry is admitted before it launches
 */
Admission admissionStep(double t, int64_t pending, double oldest,
                        std::optional<double> next, double frontier,
                        int64_t max_batch, double max_wait);

}  // namespace recstack

#endif  // RECSTACK_SERVE_ADMISSION_H_
