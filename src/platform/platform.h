#ifndef RECSTACK_PLATFORM_PLATFORM_H_
#define RECSTACK_PLATFORM_PLATFORM_H_

/**
 * @file
 * Hardware platform descriptions for the four systems of Table II:
 * Intel Broadwell (Xeon E5-2697A) and Cascade Lake (Xeon Gold 6242)
 * CPUs, and NVIDIA GTX 1080 Ti (Pascal) and T4 (Turing) GPUs.
 *
 * CPU parameters feed the microarchitecture simulator; GPU parameters
 * feed the analytical roofline model. Public microarchitectural
 * numbers (cache geometry, decoder widths, DSB capacity, penalties)
 * follow Intel's optimization manual and Agner Fog's tables; where a
 * value is not public (branch-predictor internals) a representative
 * value is used and the Broadwell -> Cascade Lake *delta* carries the
 * paper's observations (bigger predictor, cheaper redirects).
 */

#include <cstdint>
#include <string>
#include <vector>

namespace recstack {

/** Geometry and latency of one cache level. */
struct CacheGeom {
    uint64_t sizeBytes = 0;
    int ways = 8;
    int latencyCycles = 4;   ///< load-to-use on hit
};

/** L3 participation policy (Table II row "Cache Inclusion Policy"). */
enum class InclusionPolicy { kInclusive, kExclusive };

/** A server-class CPU (single-threaded inference, as in the paper). */
struct CpuConfig {
    std::string name;
    std::string uarch;
    double freqGHz = 2.6;
    int pipelineWidth = 4;       ///< pipeline slots per cycle
    int simdBits = 256;
    bool vnni = false;

    CacheGeom l1i;
    CacheGeom l1d;
    CacheGeom l2;
    CacheGeom l3;
    InclusionPolicy l3Policy = InclusionPolicy::kInclusive;

    // Frontend decoder.
    uint64_t dsbCapacityUops = 1536;
    double dsbUopsPerCycle = 4.0;
    double miteUopsPerCycle = 3.0;
    int dsbSwitchPenalty = 3;    ///< cycles per DSB<->MITE transition
    int dsbRefillUopsPerFlush = 32;  ///< uops re-decoded via MITE per flush

    // Branch prediction.
    int bpTableBits = 14;        ///< gshare PHT size = 2^bits
    int bpHistoryBits = 12;
    int mispredictPenalty = 17;  ///< redirect cycles
    /// Newer predictors (Skylake onward) lock onto loop-periodic
    /// outcome patterns that defeat a plain gshare.
    bool bpLoopPredictor = false;

    // Execution ports (Table II: "four arithmetic units, two load
    // units, and two store units"). The scheduler's port map is
    // built from these counts.
    int fmaPorts = 2;
    int loadPorts = 2;
    int storePorts = 2;
    /// Ports able to execute vector FP add/shuffle-class ops:
    /// Broadwell has one (port 1); Skylake onward added a second,
    /// which is what relieves the FC models' core-bound bottleneck
    /// (Fig. 10).
    int fpAddPorts = 1;

    // Memory.
    double dramGBs = 77.0;
    int dramLatencyCycles = 220;
    /// Fraction of miss latency the hardware prefetchers leave
    /// exposed for sequential / constant-stride streams (random
    /// gathers are never covered). Ablation knob for the
    /// irregular-vs-regular access story.
    double seqMissExposure = 0.12;
    double stridedMissExposure = 0.35;
    /// Off-core read-request queue depth (per core). Intel's DRAM
    /// bandwidth-congestion criterion fires when occupancy exceeds
    /// 70% of this (Fig. 14).
    int offcoreQueueDepth = 10;

    int simdLanes32() const { return simdBits / 32; }
};

/** A GPU AI accelerator, modeled analytically. */
struct GpuConfig {
    std::string name;
    std::string uarch;
    int smCount = 28;
    double freqGHz = 1.48;
    /// Effective single-precision throughput an ML framework extracts
    /// from dense GEMM at full occupancy (below peak: Caffe2 kernels).
    double effTflops = 10.0;
    double memGBs = 484.0;
    /// Achieved fraction of peak bandwidth for irregular gathers.
    double gatherEfficiency = 0.12;
    /// Achieved fraction of peak bandwidth for streaming kernels.
    double streamEfficiency = 0.75;
    /// Per-kernel launch + driver overhead, seconds.
    double kernelLaunchSec = 6.0e-6;
    /// Host-side framework dispatch preceding each launch (the CPU
    /// still walks the graph when the device executes), seconds.
    double hostDispatchSec = 3.0e-6;
    /// Host-to-device transfer: PCIe 3.0 x16 effective.
    double pcieGBs = 12.0;
    double pcieLatencySec = 12.0e-6;
    /// Extra inefficiency for many-small-kernel ops (concat/slice).
    double smallKernelFloorSec = 3.0e-6;
};

/**
 * An UPMEM-style processing-in-memory platform, modeled analytically
 * (src/pim/pim_model.h). Embedding tables live row-partitioned across
 * @c ranks DPU-populated memory ranks; the pooling kernels
 * (SparseLengthsSum/-WeightedSum/-Mean) execute next to the rows on
 * the DPUs, so only indices go up and pooled vectors come back over
 * the (narrow) host<->DPU transfer path. Every other operator runs on
 * the attached @c host CPU model — a PIM platform is a CPU whose
 * sparse ops moved into memory, which is exactly why it helps
 * SLS-dominated models and does nothing for FC-dominated ones.
 */
struct PimConfig {
    std::string name = "UPMEM PIM (8 ranks)";
    /// DPU-populated memory ranks the tables are partitioned across.
    int ranks = 8;
    /// DPUs per rank (UPMEM: 64 chips x 1 DPU per rank).
    int dpusPerRank = 64;
    /// Software threads per DPU. The DPU's in-order pipeline is only
    /// full once ~pipelineFillTasklets are resident; more tasklets
    /// add no bandwidth (they hide MRAM latency, already counted).
    int taskletsPerDpu = 16;
    int pipelineFillTasklets = 11;
    /// Aggregate MRAM streaming bandwidth of one fully-pipelined rank
    /// (dpusPerRank x ~0.6 GB/s per DPU).
    double rankInternalGBs = 38.4;
    /// Per-DPU WRAM scratchpad. Each active tasklet needs its row
    /// buffer resident, so at most wramBytesPerDpu / rowBytes
    /// tasklets can stream concurrently (the WRAM working-set
    /// constraint).
    uint64_t wramBytesPerDpu = 64 * 1024;
    /// Host->DPU / DPU->host batched-copy bandwidth and per-transfer
    /// launch latency (rank-level serial copies; far below DDR). The
    /// latency is 20 us written as us * 1e-6, one ulp under 20.0e-6:
    /// the value every pinned PIM figure was recorded with.
    double xferGBs = 8.0;
    double xferLatencySec = 20.0 * 1e-6;
    /// Host-side framework dispatch per offloaded operator.
    double hostDispatchSec = 3.0e-6;
    /// CPU that runs the non-offloaded operators (FC, GRU, concat,
    /// data loading).
    CpuConfig host;
};

/** CPU, GPU or PIM wrapper used by sweep code. */
enum class PlatformKind { kCpu, kGpu, kPim };

struct Platform {
    PlatformKind kind;
    CpuConfig cpu;   ///< valid when kind == kCpu
    GpuConfig gpu;   ///< valid when kind == kGpu
    PimConfig pim;   ///< valid when kind == kPim

    const std::string& name() const
    {
        switch (kind) {
          case PlatformKind::kCpu: return cpu.name;
          case PlatformKind::kGpu: return gpu.name;
          case PlatformKind::kPim: return pim.name;
        }
        return cpu.name;
    }
};

/** Table II instances. */
CpuConfig broadwellConfig();
CpuConfig cascadeLakeConfig();
GpuConfig gtx1080TiConfig();
GpuConfig t4Config();

/**
 * The UPMEM-style PIM instance (Broadwell host) with PimConfig's
 * defaults. Sweeps vary its fields on the returned copy.
 */
PimConfig upmemPimConfig();

/** All four platforms in the paper's order (BDW, CLX, 1080Ti, T4). */
std::vector<Platform> allPlatforms();

/**
 * The paper's four platforms plus the PIM extension appended at
 * index 4 (bench::kPim), so code indexing the paper platforms is
 * unaffected. allPlatforms() stays the default everywhere golden
 * numbers depend on the platform list.
 */
std::vector<Platform> allPlatformsWithPim();

Platform makeCpuPlatform(const CpuConfig& cfg);
Platform makeGpuPlatform(const GpuConfig& cfg);
Platform makePimPlatform(const PimConfig& cfg);

}  // namespace recstack

#endif  // RECSTACK_PLATFORM_PLATFORM_H_
