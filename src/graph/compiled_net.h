#ifndef RECSTACK_GRAPH_COMPILED_NET_H_
#define RECSTACK_GRAPH_COMPILED_NET_H_

/**
 * @file
 * CompiledNet: compile-once / run-many execution plans over a NetDef.
 *
 * Every Executor::run over a raw NetDef re-interprets the graph: a
 * virtual inferShapes per operator per batch, a fresh allocation per
 * blob, and no reuse of dead activations. CompiledNet amortizes all
 * of that the way DeepRecSys prepares nets per inference engine:
 *
 *  - compile(net, opts) validates the graph once, applies rewrite
 *    passes (FC+activation fusion, concat-into-FC folding, GRU step
 *    fusion — see docs/memory_planning.md for the pass list), and
 *    derives per-blob liveness intervals over the topological order.
 *  - plan(ws, batch) specializes the compiled net to one batch size:
 *    static shape inference over the fused schedule, cached per-op
 *    KernelProfiles, and an arena memory plan that first-fit packs
 *    non-overlapping activations into one contiguous allocation.
 *    Plans are memoized per batch and shared across threads.
 *  - Executor::run(compiled, ...) binds the plan into a Workspace
 *    (activations become arena views; weights and external
 *    inputs/outputs stay workspace-owned) and runs the fused kernels
 *    with no per-run shape inference or profile lowering.
 *
 * Numerics are bit-identical to the interpreted path at every thread
 * width: fused kernels replicate the exact fp32 operation order of
 * the windows they replace, and the liveness rule (an input stays
 * live through its last consuming op) forbids aliasing an op's output
 * onto any of its inputs.
 *
 * The source NetDef must outlive the CompiledNet (unfused operators
 * are referenced, not copied).
 *
 * CompileOptions::planMemory = false turns arena aliasing off
 * (activations fall back to per-blob workspace allocations) while
 * keeping fusion and the compiled fast path; the plan-equivalence
 * suite compares the two when an aliasing problem is suspected.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "graph/net.h"

namespace recstack {

/** Compile-time knobs of CompiledNet::compile. */
struct CompileOptions {
    /// Apply the rewrite passes (FC+activation, concat folding, GRU
    /// step fusion). Off, the compiled schedule is the builder's
    /// op-for-op — what the characterizer uses so cached profiles
    /// stay byte-identical with the paper's framework-granularity
    /// measurements.
    bool fuseOps = true;
    /// Emit the liveness-based arena plan. Off, activations are
    /// per-blob workspace allocations — what the characterizer uses.
    bool planMemory = true;
};

/** One rewrite decision, for `recstack plan` dumps and tests. */
struct FusionDecision {
    std::string kind;                     ///< "fc+act", "concat+fc", ...
    std::string fusedOp;                  ///< emitted operator name
    std::vector<std::string> absorbedOps; ///< replaced operator names
};

/** Who owns a compiled blob's storage at run time. */
enum class BlobRole {
    kExternalInput,   ///< weights + generator inputs; workspace-owned
    kExternalOutput,  ///< caller-visible results; workspace-owned
    kActivation       ///< internal; arena candidate
};

/** Liveness record of one blob over the compiled op order. */
struct BlobInfo {
    std::string name;
    BlobRole role = BlobRole::kActivation;
    /// Producing op index; -1 for external inputs.
    int def = -1;
    /// Last consuming op index (def for produced-but-unread blobs;
    /// the op count for external outputs, which stay live past the
    /// net). An input is live *through* its last consumer, so an
    /// op's output can never alias one of its own inputs.
    int lastUse = -1;
};

/** Offset marker of blobs kept out of the arena. */
inline constexpr size_t kNoArenaOffset = static_cast<size_t>(-1);

/**
 * One batch-size specialization of a compiled net: shapes, cached
 * profiles, and the arena layout. Index-aligned with
 * CompiledNet::blobs() / ops().
 */
struct NetPlan {
    int64_t batch = 0;

    /// Kernel tier captured at specialize() time (the lowering-time
    /// resolution of RECSTACK_ISA / setKernelIsa / host detection).
    /// Executor::run installs an IsaScope of this tier around the
    /// compiled schedule, so a plan always executes with the kernels
    /// it was lowered for even if the environment changes later.
    KernelIsa kernelIsa = KernelIsa::kScalar;

    // Per-blob (aligned with CompiledNet::blobs()).
    std::vector<std::vector<int64_t>> shapes;
    std::vector<DType> dtypes;
    std::vector<size_t> bytes;
    /// Arena byte offset, or kNoArenaOffset for workspace-owned blobs
    /// (and all activations when planning is disabled).
    std::vector<size_t> offsets;

    // Per-op (aligned with CompiledNet::ops()): profiles lowered once
    // at plan time, with the unique-code rewrite already applied.
    std::vector<KernelProfile> profiles;

    /// Planned peak activation bytes — the arena size.
    size_t arenaBytes = 0;
    /// What the interpreted path allocates for the same batch: the
    /// per-blob sum over the *original* (unfused) net's activations.
    size_t naiveActivationBytes = 0;
    /// Activation bytes of the fused schedule without aliasing.
    size_t fusedActivationBytes = 0;
};

/**
 * A grow-only 64-byte-aligned scratch allocation one worker binds
 * compiled plans into. Reused across batches; growing invalidates
 * previously bound views, which is safe because every compiled run
 * rebinds before executing.
 */
class Arena
{
  public:
    /** Pointer to at least @c bytes of storage (grows, never shrinks). */
    std::byte* ensure(size_t bytes);

    size_t capacity() const { return capacity_; }

  private:
    std::vector<std::byte> storage_;
    size_t capacity_ = 0;
};

/** A compiled, fusion-rewritten, memory-planned net. */
class CompiledNet
{
  public:
    /**
     * Compile @c net: validate, fuse (per @c opts), derive liveness.
     * The net must outlive the returned CompiledNet.
     */
    static std::shared_ptr<CompiledNet> compile(const NetDef& net,
                                                CompileOptions opts = {});

    /** Process-wide count of compile() calls (compile-once tests). */
    static uint64_t compileCount();

    const std::string& name() const { return net_->name(); }
    /** Compiled (post-fusion) schedule, in execution order. */
    const std::vector<Operator*>& ops() const { return ops_; }
    size_t opCount() const { return ops_.size(); }
    /** Op count of the source net before fusion. */
    size_t originalOpCount() const { return net_->opCount(); }
    const std::vector<FusionDecision>& fusions() const { return fusions_; }
    const std::vector<BlobInfo>& blobs() const { return blobs_; }

    /**
     * The (memoized, thread-safe) specialization for @c batch. @c ws
     * supplies the external-input shapes (weights and generator
     * inputs must already be declared or materialized); shapes are
     * verified against the cached plan on later calls via bind().
     */
    const NetPlan& plan(const Workspace& ws, int64_t batch);

    /**
     * Bind @c plan into @c ws: planned activations become views into
     * @c arena (sized here), unplanned activations and external
     * outputs become owned allocations, and external-input shapes are
     * checked against the plan. After bind, ops()[i]->run(ws) needs
     * no per-op shape inference.
     */
    void bind(Workspace& ws, Arena& arena, const NetPlan& plan) const;

  private:
    CompiledNet(const NetDef& net, CompileOptions opts);

    void applyFusion();
    void buildBlobTable();
    std::unique_ptr<NetPlan> specialize(const Workspace& ws,
                                        int64_t batch) const;

    const NetDef* net_;
    bool planMemory_;
    /// Post-fusion schedule; fused entries are owned here, unfused
    /// entries point into net_->ops().
    std::vector<OperatorPtr> owned_;
    std::vector<Operator*> ops_;
    std::vector<FusionDecision> fusions_;
    std::vector<BlobInfo> blobs_;

    std::mutex planMu_;
    std::map<int64_t, std::unique_ptr<NetPlan>> plans_;
};

}  // namespace recstack

#endif  // RECSTACK_GRAPH_COMPILED_NET_H_
