#include "serve/admission.h"

namespace recstack {

Admission
admissionStep(double t, int64_t pending, double oldest,
              std::optional<double> next, double frontier,
              int64_t max_batch, double max_wait)
{
    if (pending >= max_batch) {
        return {AdmitAction::kLaunchFull, t, max_batch};
    }
    if (!next && frontier == kWholeStreamKnown) {
        return {pending == 0 ? AdmitAction::kRetire
                             : AdmitAction::kLaunchDrain,
                t, pending};
    }
    if (pending == 0) {
        return next ? Admission{AdmitAction::kAdmitNext, *next}
                    : Admission{AdmitAction::kStall, t};
    }
    if (t - oldest >= max_wait) {
        return {AdmitAction::kLaunchWindow, t, pending};
    }
    const double expiry = oldest + max_wait;
    if (next && *next <= expiry) {
        return {AdmitAction::kAdmitNext, *next};
    }
    // No known arrival inside the window; conclusive only if no
    // unknown one (all at or after the frontier) can land in it.
    if (expiry >= frontier) {
        return {AdmitAction::kStall, t};
    }
    return {AdmitAction::kLaunchWindow, expiry, pending};
}

}  // namespace recstack
