#ifndef RECSTACK_UARCH_COUNTERS_H_
#define RECSTACK_UARCH_COUNTERS_H_

/**
 * @file
 * CpuCounters: the PMU-style raw counter set the CPU model produces.
 * Everything Figures 8-15 of the paper report derives from these.
 */

#include <cstdint>

namespace recstack {

/** Raw event counts accumulated over a simulated region. */
struct CpuCounters {
    // Retired work.
    uint64_t uopsRetired = 0;
    uint64_t avxUopsRetired = 0;     ///< vector ALU + vector memory uops
    uint64_t scalarUopsRetired = 0;

    // Branches.
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;

    // L1D / L2 / L3 / DRAM demand accesses (data side).
    uint64_t l1dAccesses = 0;
    uint64_t l1dHits = 0;
    uint64_t l2Hits = 0;
    uint64_t l3Hits = 0;
    uint64_t dramAccesses = 0;
    uint64_t dramBytes = 0;

    // Instruction side.
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;

    // Decoder delivery.
    uint64_t uopsFromDsb = 0;
    uint64_t uopsFromMite = 0;
    uint64_t dsbSwitches = 0;

    // Cycle accounting (derived during simulation, in cycles).
    double cycles = 0.0;
    double retireCycles = 0.0;        ///< uopsRetired / width
    double feLatencyCycles = 0.0;     ///< icache-miss driven fetch bubbles
    double feBandwidthDsbCycles = 0.0;   ///< DSB-thrash decoder stalls
    double feBandwidthMiteCycles = 0.0;  ///< MITE steady-state deficit
    double badSpecCycles = 0.0;
    double beCoreCycles = 0.0;        ///< functional-unit contention
    double beMemL2Cycles = 0.0;
    double beMemL3Cycles = 0.0;
    double beMemDramLatCycles = 0.0;
    double beMemDramBwCycles = 0.0;   ///< DRAM bandwidth-congested stalls
    /// Cycles spent in kernels whose DRAM demand exceeded 70% of the
    /// controller's service capacity (Intel's congestion criterion).
    double dramCongestedCycles = 0.0;
    double storeCycles = 0.0;

    // Functional-unit usage distribution: fraction of cycles with at
    // least k of the 8 execution ports busy, k in [0, 8].
    double portsBusyAtLeast[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};

    /** Merge another region's counters (weighted by its cycles). */
    void accumulate(const CpuCounters& other);

    double feCycles() const
    {
        return feLatencyCycles + feBandwidthDsbCycles +
               feBandwidthMiteCycles;
    }
    double beMemCycles() const
    {
        return beMemL2Cycles + beMemL3Cycles + beMemDramLatCycles +
               beMemDramBwCycles;
    }
    double beCycles() const { return beCoreCycles + beMemCycles(); }

    double ipc(int width) const;
    double imspki() const;    ///< i-cache misses per kilo-uop
    double mispredictsPerKuop() const;
};

}  // namespace recstack

#endif  // RECSTACK_UARCH_COUNTERS_H_
