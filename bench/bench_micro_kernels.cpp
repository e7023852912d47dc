/**
 * @file
 * google-benchmark microbenchmarks of the numeric kernels and the
 * simulator primitives themselves (host performance of recstack, not
 * figure regeneration), followed by an EXT-SIMD PAPER-CHECK section
 * comparing the vectorized kernel tier against scalar at one thread
 * (docs/vectorization.md). Kernel benches take a trailing tier arg
 * (0 = scalar, 1 = avx2); avx2 rows self-skip on hosts without
 * AVX2+FMA.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/executor.h"
#include "models/model.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/fc.h"
#include "ops/fused.h"
#include "ops/kernels.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/cpu_model.h"

namespace recstack {
namespace {

/** Tier from a benchmark range arg; false = skip (unsupported). */
bool
tierFromArg(benchmark::State& state, int64_t arg, KernelIsa* isa)
{
    *isa = arg == 0 ? KernelIsa::kScalar : KernelIsa::kAvx2;
    if (!kernelIsaSupported(*isa)) {
        state.SkipWithError("kernel tier unsupported on this host");
        return false;
    }
    return true;
}

/** A tensor of uniform draws in [-1, 1). */
Tensor
randomTensor(Rng* rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape));
    float* v = t.data<float>();
    for (int64_t i = 0; i < t.numel(); ++i) {
        v[i] = rng->nextFloat(-1.0f, 1.0f);
    }
    return t;
}

/**
 * FC at m x n x k with an activation (args m, n, k, act, tier; act 0
 * = none, 1 = ReLU), one intra-op thread. A one-block FusedFCOp runs
 * the same fcRows call FCOp does, plus the activation pass.
 */
void
BM_FCKernel(benchmark::State& state)
{
    const int64_t m = state.range(0);
    const int64_t n = state.range(1);
    const int64_t k = state.range(2);
    const FusedAct act = state.range(3) == 0 ? FusedAct::kNone
                                             : FusedAct::kRelu;
    KernelIsa isa;
    if (!tierFromArg(state, state.range(4), &isa)) {
        return;
    }
    IsaScope tier(isa);
    IntraOpScope width(1);
    // Random signs, so the ReLU pass sees unpredictable outputs.
    Rng rng(3);
    Workspace ws;
    ws.set("x", randomTensor(&rng, {m, k}));
    ws.set("w", randomTensor(&rng, {n, k}));
    ws.set("b", randomTensor(&rng, {n}));
    FusedFCOp fc("fc", {"x"}, "w", "b", "y", act);
    fc.inferShapes(ws);
    for (auto _ : state) {
        fc.run(ws);
        benchmark::DoNotOptimize(ws.get("y").data<float>());
        benchmark::ClobberMemory();
    }
    const int64_t flops = 2 * m * n * k;
    state.SetItemsProcessed(state.iterations() * flops);
    state.counters["GFLOP/s"] = benchmark::Counter(
        1e-9 * static_cast<double>(flops),
        benchmark::Counter::kIsIterationInvariantRate);
    state.SetLabel(std::string(kernelIsaName(isa)) +
                   (act == FusedAct::kRelu ? " relu" : ""));
}
BENCHMARK(BM_FCKernel)
    ->Args({16, 64, 64, 0, 0})
    ->Args({16, 64, 64, 0, 1})
    ->Args({16, 256, 256, 0, 0})
    ->Args({16, 256, 256, 0, 1})
    ->Args({64, 256, 256, 0, 0})
    ->Args({64, 256, 256, 0, 1})
    // The shapes that dominate batch-256 inference, none of which is
    // square: WnD's first layer (5.4 MB of W, beyond L2), a DIN
    // attention FC and a DIEN GRU gate matmul.
    ->Args({256, 1024, 1330, 0, 0})
    ->Args({256, 1024, 1330, 0, 1})
    ->Args({256, 36, 256, 0, 0})
    ->Args({256, 36, 256, 0, 1})
    ->Args({256, 192, 64, 0, 0})
    ->Args({256, 192, 64, 0, 1})
    // The activation pass without and with ReLU: one 16-row tile of
    // DIN's attention FC (its fused concat rows) and DIN's top MLP.
    ->Args({16, 36, 256, 0, 0})
    ->Args({16, 36, 256, 1, 0})
    ->Args({16, 36, 256, 0, 1})
    ->Args({16, 36, 256, 1, 1})
    ->Args({256, 200, 128, 0, 0})
    ->Args({256, 200, 128, 1, 0})
    ->Args({256, 200, 128, 0, 1})
    ->Args({256, 200, 128, 1, 1});

/** Same-shape Sub over 256 x 64 (DIN's per-behavior diff; arg tier). */
void
BM_BinaryOp(benchmark::State& state)
{
    KernelIsa isa;
    if (!tierFromArg(state, state.range(0), &isa)) {
        return;
    }
    IsaScope tier(isa);
    IntraOpScope width(1);
    Rng rng(5);
    Workspace ws;
    ws.set("a", randomTensor(&rng, {256, 64}));
    ws.set("b", randomTensor(&rng, {256, 64}));
    BinaryOp sub(BinaryFn::kSub, "sub", "a", "b", "y");
    sub.inferShapes(ws);
    for (auto _ : state) {
        sub.run(ws);
        benchmark::DoNotOptimize(ws.get("y").data<float>());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 256 * 64);
    state.SetLabel(kernelIsaName(isa));
}
BENCHMARK(BM_BinaryOp)->Arg(0)->Arg(1);

/** Uniform draws in [-2, 2): gate pre-activations of a trained scale. */
std::vector<float>
preActivations(Rng* rng, int64_t n)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (float& x : v) {
        x = rng->nextFloat(-2.0f, 2.0f);
    }
    return v;
}

/**
 * FusedGRUStep's gate math over 256 rows of hidden 64, the shape of
 * DIEN's batch-256 step, from stored gate pre-activations (args att,
 * tier; att 1 = attentional update).
 */
void
BM_GruGateRow(benchmark::State& state)
{
    KernelIsa isa;
    if (!tierFromArg(state, state.range(1), &isa)) {
        return;
    }
    constexpr int64_t rows = 256;
    constexpr int64_t hidden = 64;
    Rng rng(9);
    const std::vector<float> gx = preActivations(&rng, rows * 3 * hidden);
    const std::vector<float> gh = preActivations(&rng, rows * 3 * hidden);
    const std::vector<float> h = preActivations(&rng, rows * hidden);
    const std::vector<float> att = preActivations(&rng, rows);
    std::vector<float> y(static_cast<size_t>(rows * hidden));
    const bool attentional = state.range(0) != 0;
    for (auto _ : state) {
        for (int64_t b = 0; b < rows; ++b) {
            kern::gruGateRow(isa, gx.data() + b * 3 * hidden,
                             gh.data() + b * 3 * hidden,
                             h.data() + b * hidden,
                             attentional ? att.data() + b : nullptr,
                             y.data() + b * hidden, hidden);
        }
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows * hidden);
    state.SetLabel(std::string(kernelIsaName(isa)) +
                   (attentional ? " att" : ""));
}
BENCHMARK(BM_GruGateRow)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/** unaryRow over 16384 elements (args op, tier; op 0 = sigmoid). */
void
BM_UnaryRow(benchmark::State& state)
{
    KernelIsa isa;
    if (!tierFromArg(state, state.range(1), &isa)) {
        return;
    }
    constexpr int64_t n = 16384;
    Rng rng(3);
    const std::vector<float> x = preActivations(&rng, n);
    std::vector<float> y(static_cast<size_t>(n));
    const kern::UnOp op =
        state.range(0) == 0 ? kern::UnOp::kSigmoid : kern::UnOp::kTanh;
    for (auto _ : state) {
        kern::unaryRow(isa, op, y.data(), x.data(), n);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(std::string(kernelIsaName(isa)) +
                   (op == kern::UnOp::kSigmoid ? " sigmoid" : " tanh"));
}
BENCHMARK(BM_UnaryRow)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_SparseLengthsSum(benchmark::State& state)
{
    const int64_t lookups = state.range(0);
    const int64_t rows = 100000;
    const int64_t dim = 64;
    KernelIsa isa;
    if (!tierFromArg(state, state.range(1), &isa)) {
        return;
    }
    IsaScope tier(isa);
    Workspace ws;
    ws.set("table", Tensor({rows, dim}));
    Rng rng(1);
    std::vector<int64_t> idx(static_cast<size_t>(lookups));
    for (auto& i : idx) {
        i = static_cast<int64_t>(rng.nextBounded(rows));
    }
    ws.set("idx", Tensor::fromInt64s({lookups}, idx));
    ws.set("len", Tensor::fromInt32s({1}, {static_cast<int32_t>(
                                              lookups)}));
    SparseLengthsReduceOp sls(SlsKind::kSum, "sls", "table", "", "idx",
                              "len", "y");
    sls.inferShapes(ws);
    for (auto _ : state) {
        sls.run(ws);
        benchmark::DoNotOptimize(ws.get("y").data<float>());
    }
    state.SetItemsProcessed(state.iterations() * lookups);
    state.SetLabel(kernelIsaName(isa));
}
BENCHMARK(BM_SparseLengthsSum)
    ->Args({80, 0})
    ->Args({80, 1})
    ->Args({1280, 0})
    ->Args({1280, 1})
    ->Args({10240, 0})
    ->Args({10240, 1});

void
BM_CacheHierarchyAccess(benchmark::State& state)
{
    CacheHierarchy h(broadwellConfig());
    Rng rng(2);
    uint64_t addr = 0;
    for (auto _ : state) {
        addr = rng.nextBounded(1ull << 26);
        benchmark::DoNotOptimize(h.access(addr, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_BranchPredictor(benchmark::State& state)
{
    GsharePredictor bp(14, 12);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(0x400, rng.nextBool(0.9)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void
BM_SimulateGemmKernel(benchmark::State& state)
{
    CpuModel cpu(broadwellConfig());
    Workspace ws;
    ws.set("x", Tensor({64, 256}));
    ws.set("w", Tensor({256, 256}));
    ws.set("b", Tensor({256}));
    FCOp fc("fc", "x", "w", "b", "y");
    fc.inferShapes(ws);
    const KernelProfile kp = fc.profile(ws);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpu.simulateKernel(kp));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateGemmKernel);

void
BM_ProfileOnlyNetExecution(benchmark::State& state)
{
    Model model = buildModel(ModelId::kRM1, tinyOptions());
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    BatchGenerator gen(model.workload);
    gen.declare(ws, 64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Executor::run(model.net, ws, ExecMode::kProfileOnly));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(model.net.opCount()));
}
BENCHMARK(BM_ProfileOnlyNetExecution);

void
BM_ZipfSampler(benchmark::State& state)
{
    Rng rng(4);
    ZipfSampler zipf(1000000, 0.9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampler);

/** One RM1 table of a serve-small batch: 16 samples x 80 lookups. */
void
BM_FillZipfIndices(benchmark::State& state)
{
    Rng rng(4);
    const ZipfSampler zipf(10000, 0.75);
    std::vector<int64_t> idx(1280);
    for (auto _ : state) {
        fillZipfIndices(zipf, rng, idx.data(),
                        static_cast<int64_t>(idx.size()));
        benchmark::DoNotOptimize(idx.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(idx.size()));
}
BENCHMARK(BM_FillZipfIndices);

/** serve-small's per-batch input synthesis (RM1 at table scale 0.01). */
void
BM_MaterializeRm1Batch16(benchmark::State& state)
{
    ModelOptions opts;
    opts.tableScale = 0.01;
    const Model model = buildModel(ModelId::kRM1, opts);
    const BatchGenerator gen(model.workload);
    Workspace ws;
    for (auto _ : state) {
        gen.materialize(ws, 16);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MaterializeRm1Batch16);

/** Best-of-N single-thread numeric latency under one kernel tier. */
double
bestSeconds(const Model& model, Workspace& ws, KernelIsa isa, int reps)
{
    IsaScope tier(isa);
    ExecOptions opts;
    opts.mode = ExecMode::kNumericOnly;
    opts.numThreads = 1;
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        Executor::run(model.net, ws, opts);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/**
 * EXT-SIMD: the kernel-tier headline number. FC-heavy models at one
 * intra-op thread, avx2 tier vs scalar tier, same inputs. Printed
 * after the google-benchmark table so `--benchmark_filter` runs still
 * end with the qualitative check.
 */
void
runSimdTierCheck()
{
    bench::banner("EXT-SIMD",
                  "vectorized kernel tier vs scalar, 1 intra-op thread");
    if (!kernelIsaSupported(KernelIsa::kAvx2)) {
        bench::checkHeader();
        std::printf(
            "  [SKIPPED   ] host/build lacks AVX2+FMA; the >=2x "
            "tier check needs the avx2 tier\n");
        return;
    }

    ModelOptions opts;  // full-size models: FC work dominates
    opts.tableScale = 0.05;
    const int64_t batch = 256;
    const int reps = 5;

    double min_speedup = 1e30;
    std::printf("\n%-8s  %-6s  %-14s  %-14s  %s\n", "model", "batch",
                "scalar sec", "avx2 sec", "speedup");
    for (const ModelId id : {ModelId::kRM1, ModelId::kWnD}) {
        const Model model = buildModel(id, opts);
        Workspace ws;
        model.initParams(ws);
        BatchGenerator gen(model.workload, /*seed=*/7);
        gen.materialize(ws, batch);
        bestSeconds(model, ws, KernelIsa::kScalar, 1);  // warm allocs
        const double scalar =
            bestSeconds(model, ws, KernelIsa::kScalar, reps);
        const double avx2 =
            bestSeconds(model, ws, KernelIsa::kAvx2, reps);
        const double speedup = scalar / avx2;
        min_speedup = std::min(min_speedup, speedup);
        std::printf("%-8s  %-6lld  %14.6f  %14.6f  %6.2fx\n",
                    modelName(id), static_cast<long long>(batch),
                    scalar, avx2, speedup);
    }

    bench::checkHeader();
    bench::checkHostTimed(min_speedup >= 2.0,
                          "FC-heavy models (RM1, WnD) run >=2x faster "
                          "single-thread on the avx2 kernel tier");
}

}  // namespace
}  // namespace recstack

int
main(int argc, char** argv)
{
    char arg0_default[] = "benchmark";
    char* args_default = arg0_default;
    if (!argv) {
        argc = 1;
        argv = &args_default;
    }
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    recstack::runSimdTierCheck();
    return recstack::bench::exitStatus();
}
