#include "core/characterizer.h"

#include "graph/executor.h"

namespace recstack {
namespace {

/**
 * Run @c profiles on one CPU model: a warm-up pass (caches, DSB
 * regions, predictor), then a measured pass whose per-op seconds go
 * into @c result's breakdown and whose counters accumulate into it;
 * derives the TopDown split and returns the measured seconds.
 */
double
simulateCpuPass(const std::vector<KernelProfile>& profiles,
                const CpuConfig& config, uint64_t seed, RunResult* result)
{
    CpuModel cpu(config, seed);
    for (const KernelProfile& kp : profiles) {
        (void)cpu.simulateKernel(kp);
    }
    const double hz = config.freqGHz * 1e9;
    for (const KernelProfile& kp : profiles) {
        const CpuCounters c = cpu.simulateKernel(kp);
        result->breakdown.add(kp.opType, c.cycles / hz);
        result->counters.accumulate(c);
    }
    result->topdown = deriveTopDown(result->counters, config);
    return result->counters.cycles / hz;
}

}  // namespace

RunResult
simulateProfiles(const std::vector<KernelProfile>& profiles,
                 const Platform& platform, ModelId model, int64_t batch,
                 uint64_t input_bytes, size_t input_blobs, uint64_t seed)
{
    RunResult result;
    result.model = model;
    result.platformName = platform.name();
    result.kind = platform.kind;
    result.batch = batch;

    if (platform.kind == PlatformKind::kCpu) {
        result.seconds = simulateCpuPass(profiles, platform.cpu, seed,
                                         &result);
        return result;
    }

    if (platform.kind == PlatformKind::kPim) {
        // The pooling ops run on the DPUs; everything else — data
        // loading included (a PIM host loads inputs exactly like a
        // plain CPU) — runs on the attached host CPU model.
        std::vector<KernelProfile> host_profiles;
        std::vector<KernelProfile> offload_profiles;
        host_profiles.reserve(profiles.size());
        for (const KernelProfile& kp : profiles) {
            if (PimModel::offloadable(kp)) {
                offload_profiles.push_back(kp);
            } else {
                host_profiles.push_back(kp);
            }
        }

        const double host_seconds = simulateCpuPass(
            host_profiles, platform.pim.host, seed, &result);

        PimModel pim(platform.pim);
        result.pim = pim.simulateOffload(offload_profiles);
        for (const PimOpTime& t : result.pim.opTimes) {
            result.breakdown.add(t.opType, t.seconds);
        }
        result.seconds = host_seconds + result.pim.offloadSeconds;
        exportPimStats(result.pim);
        return result;
    }

    GpuModel gpu(platform.gpu);
    // The device does not run host-side data loading; inputs cross
    // PCIe instead.
    std::vector<KernelProfile> kernels;
    kernels.reserve(profiles.size());
    for (const KernelProfile& kp : profiles) {
        if (kp.opType != "DataLoad") {
            kernels.push_back(kp);
        }
    }
    result.gpu = gpu.simulateNet(kernels, input_bytes, input_blobs);
    for (const auto& t : result.gpu.opTimes) {
        result.breakdown.add(t.opType, t.seconds);
    }
    result.breakdown.add("DataTransfer", result.gpu.transferSeconds);
    result.seconds = result.gpu.totalSeconds;
    return result;
}

Characterizer::ModelCtx::ModelCtx(Model m) : model(std::move(m))
{
    ws.setShapeOnly(true);
    model.declareParams(ws);
    gen = std::make_unique<BatchGenerator>(model.workload);
}

Characterizer::Characterizer(ModelOptions opts, uint64_t seed,
                             FrameworkId framework)
    : opts_(std::move(opts)), seed_(seed), framework_(framework)
{
}

Characterizer::ModelCtx&
Characterizer::ctx(ModelId id)
{
    auto it = ctxs_.find(id);
    if (it == ctxs_.end()) {
        it = ctxs_.emplace(
            id, std::make_unique<ModelCtx>(
                    buildModelInFramework(id, framework_, opts_)))
                 .first;
    }
    return *it->second;
}

const Model&
Characterizer::model(ModelId id)
{
    return ctx(id).model;
}

EmbeddingStore*
Characterizer::enableStore(ModelId id, const StoreConfig& cfg)
{
    ModelCtx& mc = ctx(id);
    auto store = std::make_unique<EmbeddingStore>(cfg);
    for (const WeightSpec& spec : mc.model.weights) {
        if (spec.embedding && spec.shape.size() == 2) {
            store->declareTable(spec.name, spec.shape[0],
                                spec.shape[1]);
        }
    }
    mc.store = std::move(store);
    // The profiling workspace holds shape-only table blobs
    // (declareParams), so attaching the store flips the lookup ops'
    // profile lowering to the cache-filtered stream split.
    mc.ws.attachStore(mc.store.get());
    return mc.store.get();
}

const CompiledNet&
Characterizer::compiled(ModelId id)
{
    ModelCtx& mc = ctx(id);
    if (mc.plannedNet == nullptr) {
        mc.plannedNet = CompiledNet::compile(mc.model.net);
    }
    return *mc.plannedNet;
}

const NetPlan&
Characterizer::memoryPlan(ModelId id, int64_t batch)
{
    (void)compiled(id);
    ModelCtx& mc = ctx(id);
    mc.gen->declare(mc.ws, batch);
    return mc.plannedNet->plan(mc.ws, batch);
}

std::vector<KernelProfile>
Characterizer::profiles(ModelId id, int64_t batch, uint64_t* input_bytes,
                        size_t* input_blobs)
{
    ModelCtx& mc = ctx(id);
    // What an interpreted kProfileOnly run lowers, without its
    // executor metrics, memoized per batch: grid sweeps pay shape
    // inference and profile lowering once per (model, batch) instead
    // of once per platform visit.
    auto it = mc.profiles.find(batch);
    if (it == mc.profiles.end()) {
        mc.gen->declare(mc.ws, batch);
        std::vector<KernelProfile> lowered;
        lowered.reserve(mc.model.net.opCount() + 1);
        lowered.push_back(mc.gen->dataLoadProfile(batch));
        for (const auto& op : mc.model.net.ops()) {
            op->inferShapes(mc.ws);
            lowered.push_back(op->lowerProfile(mc.ws));
        }
        it = mc.profiles.emplace(batch, std::move(lowered)).first;
    }
    if (input_bytes != nullptr) {
        *input_bytes = mc.gen->inputBytes(batch);
    }
    if (input_blobs != nullptr) {
        size_t blobs = mc.model.workload.continuous.size();
        for (const auto& cat : mc.model.workload.categorical) {
            blobs += cat.weightsBlob.empty() ? 2 : 3;
        }
        *input_blobs = blobs;
    }
    return it->second;
}

RunResult
Characterizer::run(ModelId id, const Platform& platform, int64_t batch)
{
    uint64_t input_bytes = 0;
    size_t input_blobs = 0;
    const std::vector<KernelProfile> kernel_profiles =
        profiles(id, batch, &input_bytes, &input_blobs);
    return simulateProfiles(kernel_profiles, platform, id, batch,
                            input_bytes, input_blobs, seed_);
}

}  // namespace recstack
