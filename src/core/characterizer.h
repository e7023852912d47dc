#ifndef RECSTACK_CORE_CHARACTERIZER_H_
#define RECSTACK_CORE_CHARACTERIZER_H_

/**
 * @file
 * Characterizer: the cross-stack measurement engine. Runs one of the
 * eight models at a given batch size on a platform model and returns
 * everything the paper's three characterization layers report:
 * end-to-end latency (systems), operator breakdown (software), and
 * counters/TopDown (microarchitecture).
 */

#include <map>
#include <memory>

#include "core/breakdown.h"
#include "framework/frameworks.h"
#include "gpu/gpu_model.h"
#include "graph/compiled_net.h"
#include "models/model.h"
#include "pim/pim_model.h"
#include "platform/platform.h"
#include "store/embedding_store.h"
#include "topdown/topdown.h"
#include "uarch/cpu_model.h"
#include "workload/batch_generator.h"

namespace recstack {

/** One (model, platform, batch) characterization. */
struct RunResult {
    ModelId model;
    std::string platformName;
    PlatformKind kind = PlatformKind::kCpu;
    int64_t batch = 0;

    /// End-to-end inference seconds (data loading included, as in the
    /// paper's methodology).
    double seconds = 0.0;
    OperatorBreakdown breakdown;

    // CPU-only payloads.
    CpuCounters counters;
    TopDownResult topdown;

    // GPU-only payloads.
    GpuRunResult gpu;

    // PIM-only payloads (the offloaded share; the host share reuses
    // the CPU counters/topdown above, since a PIM platform is a CPU
    // whose pooling ops moved into memory).
    PimRunResult pim;
};

/**
 * Simulate an explicit kernel-profile sequence on a platform —
 * the platform half of a characterization run, also used to replay
 * recorded traces. Profiles with opType "DataLoad" are host-side
 * work: simulated on CPUs, replaced by the PCIe transfer on GPUs,
 * and run on the host CPU of a PIM platform (which offloads only
 * the embedding pooling ops to its DPU ranks).
 */
RunResult simulateProfiles(const std::vector<KernelProfile>& profiles,
                           const Platform& platform, ModelId model,
                           int64_t batch, uint64_t input_bytes,
                           size_t input_blobs, uint64_t seed = 42);

/** Cross-stack measurement engine with per-model caching. */
class Characterizer
{
  public:
    explicit Characterizer(ModelOptions opts = {}, uint64_t seed = 42,
                           FrameworkId framework = FrameworkId::kCaffe2);

    /** Characterize one use case. */
    RunResult run(ModelId id, const Platform& platform, int64_t batch);

    /**
     * The platform-independent kernel-profile sequence of one use
     * case (data-loading first, then the operators) plus the wire
     * geometry a GPU replay needs.
     */
    std::vector<KernelProfile> profiles(ModelId id, int64_t batch,
                                        uint64_t* input_bytes = nullptr,
                                        size_t* input_blobs = nullptr);

    /** The (cached) built model. */
    const Model& model(ModelId id);

    /**
     * The model's fused + memory-planned compiled form (compiled
     * lazily, once per model). Exposes the fusion decisions and
     * liveness table the `recstack plan` dump prints.
     */
    const CompiledNet& compiled(ModelId id);

    /**
     * The batch-@c batch arena memory plan of the fused net. Plans
     * are memoized inside the compiled net, so a batch-size grid
     * (core/sweep.h) prices each batch's layout exactly once.
     */
    const NetPlan& memoryPlan(ModelId id, int64_t batch);

    const ModelOptions& options() const { return opts_; }
    uint64_t seed() const { return seed_; }

    /**
     * Opt in to store-backed characterization for one model: a
     * sharded EmbeddingStore (tables declared shape-only) is attached
     * to the model's profiling workspace, so every subsequent
     * profiles()/run() lowers the table reads of the lookup ops as
     * cache-filtered streams — expected cache hits over the hot-row
     * cache footprint plus near/far-tier miss remainders — instead of
     * one raw random stream per table. Fig. 12/14-style DRAM and
     * cache analyses then see the traffic a store deployment leaks
     * past its cache. Call before the first profiles() for the model:
     * lowered profiles are memoized per batch and are NOT relowered.
     * Default characterizations (no call) are byte-identical to
     * before. Returns the store for knob inspection.
     */
    EmbeddingStore* enableStore(ModelId id, const StoreConfig& cfg = {});

  private:
    struct ModelCtx {
        Model model;
        /// Shape-only profiling workspace: declared params, the
        /// generator's inputs at the last declared batch, activations.
        Workspace ws;
        std::unique_ptr<BatchGenerator> gen;
        /// profiles() per batch, lowered op for op from the builder's
        /// net (byte-identical with an interpreted kProfileOnly run:
        /// the golden-figure contract), so a sweep re-visiting a
        /// batch size skips re-lowering.
        std::map<int64_t, std::vector<KernelProfile>> profiles;
        /// Compiled net backing compiled()/memoryPlan().
        std::shared_ptr<CompiledNet> plannedNet;
        /// Optional store backing the table blobs (enableStore()).
        std::unique_ptr<EmbeddingStore> store;

        explicit ModelCtx(Model m);
    };

    ModelCtx& ctx(ModelId id);

    ModelOptions opts_;
    uint64_t seed_;
    FrameworkId framework_;
    std::map<ModelId, std::unique_ptr<ModelCtx>> ctxs_;
};

}  // namespace recstack

#endif  // RECSTACK_CORE_CHARACTERIZER_H_
