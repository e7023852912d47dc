#ifndef RECSTACK_PROFILE_KERNEL_PROFILE_H_
#define RECSTACK_PROFILE_KERNEL_PROFILE_H_

/**
 * @file
 * KernelProfile: the platform-independent workload descriptor that an
 * operator execution emits and that the CPU microarchitecture
 * simulator and the GPU analytical model consume.
 *
 * The profile describes *work*, not instructions: flops, byte streams
 * with access patterns, branch behaviour, and code footprint. Each
 * platform model lowers the work to its own instruction/transaction
 * counts (e.g. AVX-2 vs AVX-512 lane width), which is exactly how the
 * paper's Broadwell-vs-Cascade-Lake retired-instruction gap (Fig. 11)
 * arises.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace recstack {

/** Spatial pattern of a memory stream. */
enum class AccessPattern {
    kSequential,  ///< dense linear sweep over the footprint
    kStrided,     ///< constant stride (strideBytes) between chunks
    kRandom       ///< random chunk selection over the footprint
};

/**
 * One logical memory stream of an operator: @c accesses touches of
 * @c chunkBytes contiguous bytes each, laid out over a region of
 * @c footprintBytes identified by @c region.
 *
 * Regions are named so cache state is shared across operators and
 * batches that touch the same buffer (embedding tables being the
 * important case).
 */
struct MemStream {
    std::string region;            ///< backing-buffer identity
    AccessPattern pattern = AccessPattern::kSequential;
    uint64_t accesses = 0;         ///< number of chunk touches
    uint64_t chunkBytes = 64;      ///< contiguous bytes per touch
    uint64_t footprintBytes = 0;   ///< region size
    uint64_t strideBytes = 0;      ///< for kStrided
    bool isWrite = false;
    double zipfExponent = 0.0;     ///< skew of kRandom chunk choice
    double mlp = 4.0;              ///< memory-level parallelism of misses

    uint64_t totalBytes() const { return accesses * chunkBytes; }
};

/**
 * One logical branch population: @c count dynamic branches whose
 * outcome stream has long-run bias @c takenProbability and
 * data-dependence @c randomness (0 = perfectly periodic loop branch,
 * 1 = i.i.d. coin flips at the given bias).
 */
struct BranchStream {
    uint64_t count = 0;
    double takenProbability = 1.0;
    double randomness = 0.0;
    /// Loop-control branches of vectorized loops: wider SIMD executes
    /// fewer iterations, so the dynamic count shrinks with lane
    /// width. Data-dependent branches (embedding segments, dispatch)
    /// do not scale.
    bool scalesWithSimd = false;
};

/**
 * Abstract description of one operator execution.
 */
struct KernelProfile {
    std::string opType;            ///< Caffe2-style operator name
    std::string opName;            ///< instance name within the net

    /// Vectorizable fused-multiply-add flops (2 flops per FMA lane).
    uint64_t fmaFlops = 0;
    /// Other vectorizable element operations (copy/relu/add...), in
    /// elements (fp32 lanes).
    uint64_t vecElemOps = 0;
    /// Scalar bookkeeping micro-ops (address math, loop control that
    /// is not counted as a branch, framework glue inside the kernel).
    uint64_t scalarOps = 0;
    /// Scalar loop-bookkeeping ops of vectorized loops; these shrink
    /// with SIMD width (half the iterations on AVX-512).
    uint64_t simdScalableOps = 0;
    /// Vector-element loads re-reading cache-resident data (register-
    /// blocked GEMM operand reloads). They occupy load ports and
    /// count as retired AVX memory uops but add no new cache traffic.
    uint64_t reloadLoadElems = 0;

    std::vector<MemStream> streams;
    std::vector<BranchStream> branches;

    /// Static code bytes of the kernel's hot region. Distinct operator
    /// *instances* with distinct immediate operands (the paper's DIN
    /// local-activation case) must report distinct code via unique
    /// codeRegion names.
    uint64_t codeFootprintBytes = 0;
    std::string codeRegion;        ///< identity of the code (for L1I reuse)
    /// Dynamic executions of the hot region (loop trip count); used to
    /// weight frontend supply needs.
    uint64_t codeIterations = 1;

    /// Internally serialized phases of the kernel (a fused GRU has one
    /// per timestep): an accelerator cannot parallelize across them.
    uint64_t serialSteps = 1;

    /// Output-matrix width of a GEMM-shaped kernel (0 when not a
    /// GEMM). Narrow outputs (DIN's 36-wide local activation units)
    /// underutilize GPU GEMM pipelines regardless of batch size.
    uint64_t gemmWidth = 0;

    /// Scalar micro-ops of per-operator framework dispatch (graph walk,
    /// type checks, allocator). Dominates tiny-operator models.
    uint64_t dispatchOps = 0;
    /// Code bytes of the framework dispatch path (cold, shared region).
    uint64_t dispatchCodeBytes = 0;

    /** Total dynamic branch count across all streams. */
    uint64_t totalBranches() const;
    /** Total bytes read / written. */
    uint64_t bytesRead() const;
    uint64_t bytesWritten() const;

    /** Merge another profile's work into this one (for fused views). */
    void accumulate(const KernelProfile& other);
};

/** The kinds of Caffe2's SparseLengths pooling family. */
enum class SlsKind { kSum, kWeightedSum, kMean };

/**
 * Identity and per-lookup work of one SparseLengths pooling kind. The
 * vector counts are per embedding element a lookup pools; scalarOps
 * covers index decode, bounds checks and address generation.
 */
struct SlsKindInfo {
    std::string_view opType;  ///< Caffe2 type name (KernelProfile::opType)
    std::string_view prefix;  ///< diagnostic prefix
    uint64_t vecElemOps;      ///< plain adds per pooled element
    uint64_t fmaFlops;        ///< FMA flops per pooled element
    uint64_t scalarOps;       ///< scalar ops per lookup
};

/** The family's kind table, indexed by SlsKind. */
inline constexpr SlsKindInfo kSlsKinds[] = {
    {"SparseLengthsSum", "SLS", 1, 0, 8},
    {"SparseLengthsWeightedSum", "SLWS", 0, 2, 9},
    {"SparseLengthsMean", "SLMean", 1, 0, 8},
};

constexpr const SlsKindInfo&
slsKindInfo(SlsKind kind)
{
    return kSlsKinds[static_cast<int>(kind)];
}

/** True iff @c op_type names a SparseLengths pooling kind. */
constexpr bool
isSparseLengthsReduce(std::string_view op_type)
{
    for (const SlsKindInfo& info : kSlsKinds) {
        if (info.opType == op_type) {
            return true;
        }
    }
    return false;
}

}  // namespace recstack

#endif  // RECSTACK_PROFILE_KERNEL_PROFILE_H_
