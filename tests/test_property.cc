/**
 * @file
 * Property-based and differential tests:
 *  - the unrolled GRU graph against the fused GRULayer operator,
 *  - CpuModel scaling properties across batch-like work scaling,
 *  - parallelFor partition properties (chunks exactly tile the range)
 *    and randomized serial-vs-parallel bit-equality per operator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/executor.h"
#include "ops/elementwise.h"
#include "ops/embedding.h"
#include "ops/fc.h"
#include "ops/gru.h"
#include "ops/reshape.h"
#include "uarch/cpu_model.h"

namespace recstack {
namespace {

/**
 * Build an unrolled single-sample GRU with the SAME weight blobs as a
 * fused GRULayerOp and check both produce the same hidden states, bit
 * for bit on every kernel tier (hidden 13: one 8-lane gate block plus
 * a tail). This is the numeric guarantee behind the
 * bench_ablate_gru_fusion comparison: the two graphs differ only in
 * operator granularity.
 */
TEST(GruEquivalence, UnrolledGraphMatchesFusedOperator)
{
    const int64_t steps = 4, batch = 3, dim = 5, hidden = 13;
    Rng rng(77);
    auto rand_tensor = [&rng](std::vector<int64_t> shape) {
        Tensor t(std::move(shape));
        for (int64_t i = 0; i < t.numel(); ++i) {
            t.data<float>()[i] = rng.nextFloat(-0.5f, 0.5f);
        }
        return t;
    };

    Workspace ws;
    ws.set("wx", rand_tensor({3 * hidden, dim}));
    ws.set("wh", rand_tensor({3 * hidden, hidden}));
    ws.set("bias", rand_tensor({3 * hidden}));
    ws.set("bias0", Tensor({3 * hidden}));  // zero bias for h-path FC
    ws.set("h0", rand_tensor({batch, hidden}));
    ws.set("seq_bm", rand_tensor({batch, steps, dim}));  // batch-major

    // --- Unrolled path: per-step ops over the same weights. ---
    NetDef net("unrolled");
    for (const char* input : {"seq_bm", "h0", "wx", "wh", "bias",
                              "bias0"}) {
        net.addExternalInput(input);
    }
    std::string h = "h0";
    for (int64_t t = 0; t < steps; ++t) {
        const std::string ts = "t" + std::to_string(t);
        net.addOp(makeSlice(ts + "_x", "seq_bm", ts + "_xt", t));
        net.addOp(makeFC(ts + "_gx", ts + "_xt", "wx", "bias",
                         ts + "_gxf"));
        net.addOp(makeFC(ts + "_gh", h, "wh", "bias0", ts + "_ghf"));
        net.addOp(makeReshape(ts + "_rx", ts + "_gxf", ts + "_gx3",
                              {-1, 3, hidden}));
        net.addOp(makeReshape(ts + "_rh", ts + "_ghf", ts + "_gh3",
                              {-1, 3, hidden}));
        for (int g = 0; g < 3; ++g) {
            net.addOp(makeSlice(ts + "_sx" + std::to_string(g),
                                ts + "_gx3",
                                ts + "_gx" + std::to_string(g), g));
            net.addOp(makeSlice(ts + "_sh" + std::to_string(g),
                                ts + "_gh3",
                                ts + "_gh" + std::to_string(g), g));
        }
        net.addOp(makeAdd(ts + "_ar", ts + "_gx0", ts + "_gh0",
                          ts + "_rsum"));
        net.addOp(makeSigmoid(ts + "_r", ts + "_rsum", ts + "_rg"));
        net.addOp(makeAdd(ts + "_az", ts + "_gx1", ts + "_gh1",
                          ts + "_zsum"));
        net.addOp(makeSigmoid(ts + "_z", ts + "_zsum", ts + "_zg"));
        net.addOp(makeMul(ts + "_rh2", ts + "_rg", ts + "_gh2",
                          ts + "_rgh"));
        net.addOp(makeAdd(ts + "_an", ts + "_gx2", ts + "_rgh",
                          ts + "_nsum"));
        net.addOp(makeTanh(ts + "_n", ts + "_nsum", ts + "_ng"));
        net.addOp(makeMul(ts + "_zn", ts + "_zg", ts + "_ng",
                          ts + "_zng"));
        net.addOp(makeSub(ts + "_nmzn", ts + "_ng", ts + "_zng",
                          ts + "_a"));
        net.addOp(makeMul(ts + "_zh", ts + "_zg", h, ts + "_zhv"));
        net.addOp(makeAdd(ts + "_hnew", ts + "_a", ts + "_zhv",
                          ts + "_h"));
        h = ts + "_h";
    }
    net.addExternalOutput(h);
    net.validate();
    for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
        if (!kernelIsaSupported(isa)) {
            continue;
        }
        SCOPED_TRACE(kernelIsaName(isa));
        IsaScope tier(isa);
        // --- Fused path (time-major input). ---
        {
            TransposeOp tr("tr", "seq_bm", "seq_tm");
            tr.inferShapes(ws);
            tr.run(ws);
            GRULayerOp gru("fused", "seq_tm", "h0", "wx", "wh", "bias",
                           "hseq", "hlast_fused");
            gru.inferShapes(ws);
            gru.run(ws);
        }

        Executor::run(net, ws, ExecMode::kFull);

        const Tensor& fused = ws.get("hlast_fused");
        const Tensor& unrolled = ws.get(h);
        ASSERT_EQ(fused.shape(), unrolled.shape());
        EXPECT_EQ(std::memcmp(fused.data<float>(), unrolled.data<float>(),
                              fused.byteSize()),
                  0);
    }
}

/** More simulated work must never take fewer cycles. */
TEST(CpuModelProperty, CyclesMonotoneInWork)
{
    auto profile_for = [](uint64_t scale) {
        KernelProfile kp;
        kp.opType = "FC";
        kp.opName = "fc";
        kp.fmaFlops = (1 << 16) * scale;
        kp.vecElemOps = (1 << 14) * scale;
        kp.scalarOps = 1024 * scale;
        kp.codeFootprintBytes = 2048;
        kp.codeRegion = "kernel:FC";
        MemStream s;
        s.region = "w";
        s.accesses = 512 * scale;
        s.chunkBytes = 64;
        s.footprintBytes = 512 * 64 * scale;
        kp.streams.push_back(s);
        return kp;
    };
    double prev = 0.0;
    for (uint64_t scale : {1, 2, 4, 8, 16}) {
        CpuModel cpu(broadwellConfig(), 3);
        cpu.simulateKernel(profile_for(scale));
        const double cycles =
            cpu.simulateKernel(profile_for(scale)).cycles;
        EXPECT_GT(cycles, prev);
        prev = cycles;
    }
}

/**
 * parallelFor partition property: for ANY (begin, end, grain, width)
 * the invoked chunks are non-empty, mutually disjoint, and tile
 * [begin, end) exactly. This is the foundation every parallel kernel's
 * determinism rests on (disjoint output slices).
 */
class ParallelForProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ParallelForProperty, ChunksTileTheRangeExactly)
{
    Rng rng(9000 + static_cast<uint64_t>(GetParam()));
    for (int iter = 0; iter < 25; ++iter) {
        const int64_t begin =
            static_cast<int64_t>(rng.nextBounded(100));
        const int64_t len = static_cast<int64_t>(rng.nextBounded(2000));
        const int64_t end = begin + len;
        const int64_t grain =
            1 + static_cast<int64_t>(rng.nextBounded(300));
        const int width = 1 + static_cast<int>(rng.nextBounded(8));

        IntraOpScope scope(width);
        std::mutex mu;
        std::vector<std::pair<int64_t, int64_t>> chunks;
        parallelFor(begin, end, grain, [&](int64_t lo, int64_t hi) {
            std::lock_guard<std::mutex> lock(mu);
            chunks.emplace_back(lo, hi);
        });

        if (len == 0) {
            EXPECT_TRUE(chunks.empty())
                << "fn invoked on an empty range";
            continue;
        }
        std::sort(chunks.begin(), chunks.end());
        ASSERT_FALSE(chunks.empty());
        EXPECT_EQ(chunks.front().first, begin);
        EXPECT_EQ(chunks.back().second, end);
        for (size_t i = 0; i < chunks.size(); ++i) {
            EXPECT_LT(chunks[i].first, chunks[i].second)
                << "empty chunk " << i;
            if (i > 0) {
                EXPECT_EQ(chunks[i].first, chunks[i - 1].second)
                    << "gap or overlap before chunk " << i
                    << " (begin=" << begin << " end=" << end
                    << " grain=" << grain << " width=" << width << ")";
            }
        }
        // Never more chunks than the width allows or the grain
        // permits (ceil division).
        const int64_t max_parts =
            std::min<int64_t>(width, (len + grain - 1) / grain);
        EXPECT_LE(static_cast<int64_t>(chunks.size()), max_parts);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelForProperty,
                         ::testing::Range(0, 4));

/** Degenerate ranges: empty, single element, grain beyond range. */
TEST(ParallelForEdgeCases, DegenerateRanges)
{
    IntraOpScope scope(8);

    int calls = 0;
    parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    parallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0) << "empty/inverted ranges must not invoke fn";

    std::vector<std::pair<int64_t, int64_t>> chunks;
    parallelFor(41, 42, 1, [&](int64_t lo, int64_t hi) {
        chunks.emplace_back(lo, hi);
    });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{41, 42}));

    // grain > range: one chunk, executed inline on the caller.
    chunks.clear();
    parallelFor(0, 10, 1000, [&](int64_t lo, int64_t hi) {
        chunks.emplace_back(lo, hi);
    });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{0, 10}));
}

/**
 * Nested parallelFor must not deadlock: inside a pool worker it
 * degrades to serial inline; on the caller's own chunk it may still
 * fan out (the caller is not a worker), so the inner count is atomic.
 */
TEST(ParallelForEdgeCases, NestedCallsComplete)
{
    IntraOpScope scope(4);
    std::atomic<int64_t> total{0};
    parallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
        std::atomic<int64_t> inner{0};
        parallelFor(lo, hi, 1,
                    [&](int64_t l, int64_t h) { inner += h - l; });
        total += inner.load();
    });
    EXPECT_EQ(total.load(), 64);
}

/**
 * Randomized serial-vs-parallel differential per operator: FC,
 * activations, Binary (with and without column broadcast), Sum,
 * SparseLengthsSum and Gather under random shapes must be bitwise
 * identical at width 1 and a random width in [2, 9].
 */
class ParallelOpDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(ParallelOpDifferential, BitIdenticalToSerial)
{
    Rng rng(31000 + static_cast<uint64_t>(GetParam()));
    const int width = 2 + static_cast<int>(rng.nextBounded(8));

    // Random geometry, deliberately including tiny dims so some
    // kernels get fewer rows than the width.
    const int64_t m = 1 + static_cast<int64_t>(rng.nextBounded(33));
    const int64_t k = 1 + static_cast<int64_t>(rng.nextBounded(48));
    const int64_t n = 1 + static_cast<int64_t>(rng.nextBounded(48));
    const int64_t rows = 8 + static_cast<int64_t>(rng.nextBounded(64));
    const int64_t batch = 1 + static_cast<int64_t>(rng.nextBounded(17));
    const int64_t lookups =
        1 + static_cast<int64_t>(rng.nextBounded(5));

    NetDef net("parallel_diff");
    for (const char* input : {"x", "w", "b", "table", "idx", "len"}) {
        net.addExternalInput(input);
    }
    net.addOp(makeFC("fc", "x", "w", "b", "fc_y"));
    net.addOp(makeSigmoid("act", "fc_y", "act_y"));
    net.addOp(makeMul("mul", "fc_y", "act_y", "mul_y"));
    net.addOp(makeSum("sum", {"fc_y", "act_y", "mul_y"}, "sum_y"));
    net.addOp(makeSparseLengthsReduce(SlsKind::kSum, "sls", "table", "",
                                      "idx", "len", "sls_y"));
    net.addOp(makeGather("gather", "table", "idx", "gather_y"));
    net.addOp(makeReshape("rs3", "gather_y", "gather3",
                          {batch, lookups, n}));
    net.addOp(makeReduceSum("rsum", "gather3", "rsum_y"));
    for (const char* output : {"sum_y", "sls_y", "gather_y",
                               "rsum_y"}) {
        net.addExternalOutput(output);
    }
    net.validate();

    auto fill = [&](Workspace& ws, uint64_t seed) {
        Rng local(seed);
        auto tensor_of = [&local](std::vector<int64_t> shape) {
            Tensor t(std::move(shape));
            for (int64_t i = 0; i < t.numel(); ++i) {
                t.data<float>()[i] = local.nextFloat(-2.0f, 2.0f);
            }
            return t;
        };
        ws.set("x", tensor_of({m, k}));
        ws.set("w", tensor_of({n, k}));
        ws.set("b", tensor_of({n}));
        ws.set("table", tensor_of({rows, n}));
        Tensor idx({batch * lookups}, DType::kInt64);
        for (int64_t i = 0; i < idx.numel(); ++i) {
            idx.data<int64_t>()[i] = static_cast<int64_t>(
                local.nextBounded(static_cast<uint64_t>(rows)));
        }
        ws.set("idx", std::move(idx));
        Tensor len({batch}, DType::kInt32);
        for (int64_t i = 0; i < len.numel(); ++i) {
            len.data<int32_t>()[i] = static_cast<int32_t>(lookups);
        }
        ws.set("len", std::move(len));
    };

    const uint64_t fill_seed = 555 + static_cast<uint64_t>(GetParam());
    Workspace serial_ws;
    fill(serial_ws, fill_seed);
    ExecOptions serial_opts;
    serial_opts.mode = ExecMode::kNumericOnly;
    serial_opts.numThreads = 1;
    Executor::run(net, serial_ws, serial_opts);

    Workspace parallel_ws;
    fill(parallel_ws, fill_seed);
    ExecOptions parallel_opts;
    parallel_opts.mode = ExecMode::kNumericOnly;
    parallel_opts.numThreads = width;
    Executor::run(net, parallel_ws, parallel_opts);

    for (const char* blob : {"fc_y", "act_y", "mul_y", "sum_y",
                             "sls_y", "gather_y", "rsum_y"}) {
        const Tensor& a = serial_ws.get(blob);
        const Tensor& b = parallel_ws.get(blob);
        ASSERT_EQ(a.shape(), b.shape()) << blob;
        EXPECT_EQ(std::memcmp(a.data<float>(), b.data<float>(),
                              a.byteSize()),
                  0)
            << "blob '" << blob << "' diverges at width " << width;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOpDifferential,
                         ::testing::Range(0, 100));

/** Retired uops are exactly linear in replicated work. */
TEST(CpuModelProperty, UopsLinearInWork)
{
    CpuModel cpu(broadwellConfig());
    KernelProfile kp;
    kp.fmaFlops = 1 << 16;
    kp.vecElemOps = 1 << 12;
    const uint64_t once = cpu.lowerUops(kp).total();
    kp.fmaFlops *= 3;
    kp.vecElemOps *= 3;
    EXPECT_EQ(cpu.lowerUops(kp).total(), 3 * once);
}

}  // namespace
}  // namespace recstack
