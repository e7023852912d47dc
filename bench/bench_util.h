#ifndef RECSTACK_BENCH_BENCH_UTIL_H_
#define RECSTACK_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared plumbing for the figure/table regeneration binaries. Every
 * bench prints (a) the series the paper's figure plots and (b) a
 * PAPER-CHECK block stating the qualitative result the paper reports
 * and whether this run reproduces it. A bench exits nonzero when a
 * claim diverges, so each one registered with ctest (label `paper`)
 * is a regression test of the reproduction.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/regression_study.h"
#include "core/sweep.h"
#include "report/chart.h"
#include "report/table.h"

namespace recstack {
namespace bench {

/** Print the bench banner. */
inline void
banner(const char* figure, const char* title)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", figure, title);
    std::printf("==============================================================\n");
}

/** Gating claims that diverged so far in this process. */
inline int&
divergedClaims()
{
    static int n = 0;
    return n;
}

/**
 * Print one qualitative paper-vs-measured check line. A diverged
 * claim makes exitStatus() nonzero, so the bench fails its ctest.
 */
inline void
check(bool ok, const std::string& claim)
{
    std::printf("  [%s] %s\n", ok ? "REPRODUCED" : "DIVERGES  ",
                claim.c_str());
    if (!ok) {
        ++divergedClaims();
    }
}

/**
 * A claim that compares a host wall-clock measurement to a bound.
 * Printed like check(), but it does not set the exit status: a
 * shared host's speed swings too much for a wall-clock gate.
 */
inline void
checkHostTimed(bool ok, const std::string& claim)
{
    std::printf("  [%s] %s (host-timed, does not gate)\n",
                ok ? "REPRODUCED" : "DIVERGES  ", claim.c_str());
}

/** A bench main's exit status: 1 if any gating claim diverged. */
inline int
exitStatus()
{
    return divergedClaims() == 0 ? 0 : 1;
}

inline void
checkHeader()
{
    std::printf("\nPAPER-CHECK (qualitative claims from the paper):\n");
}

/** Platform indices in allPlatforms() order; kPim only exists in
 * allPlatformsWithPim(). */
constexpr size_t kBdw = 0;
constexpr size_t kClx = 1;
constexpr size_t kGtx = 2;
constexpr size_t kT4 = 3;
constexpr size_t kPim = 4;

inline const char*
shortPlatformName(size_t idx)
{
    switch (idx) {
      case kBdw: return "Broadwell";
      case kClx: return "CascadeLake";
      case kGtx: return "GTX1080Ti";
      case kT4: return "T4";
      case kPim: return "PIM";
    }
    return "?";
}

}  // namespace bench
}  // namespace recstack

#endif  // RECSTACK_BENCH_BENCH_UTIL_H_
