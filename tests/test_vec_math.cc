/**
 * @file
 * The math functions behind the bit-identical sigmoid and tanh kernels
 * (ops/kernels.h, docs/vectorization.md), checked against libm bit for
 * bit, NaN payloads included:
 *
 *  - kern::tanh, the scalar port of fdlibm's tanhf, against std::tanh;
 *  - the avx2 tier's 8-lane tanh (unaryRow kTanh) against std::tanh;
 *  - the avx2 tier's 8-lane expf (detail::expRowAvx2) against std::exp,
 *    which it reproduces as glibc's FMA expf.
 *
 * Tier-1 covers every 257th float bit pattern (16.7M values, every
 * exponent and both signs) plus a list of cut points of fdlibm's tanhf
 * and expm1f and of glibc's expf. The exhaustive 2^32 sweep is
 * DISABLED_ here; run it by hand with
 *   ./build/tests/test_vec_math --gtest_also_run_disabled_tests \
 *       --gtest_filter='*Exhaustive*'
 * The std::exp comparisons hold only where libm's expf is glibc's
 * (2.27 or later) on an AVX2+FMA host, the host the avx2 tier targets.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "ops/kernels.h"
#include "ops/kernels_impl.h"

namespace recstack {
namespace {

/// Odd block length, so each block ends in a <8 tail.
constexpr int64_t kBlock = 4099;

/** A batch function y[i] = f(x[i]) under test. */
using RowFn = std::function<void(float*, const float*, int64_t)>;
/** The libm value the function must reproduce. */
using RefFn = float (*)(float);

float
libmTanh(float v)
{
    return std::tanh(v);
}

float
libmExp(float v)
{
    return std::exp(v);
}

RowFn
scalarTanhRow()
{
    return [](float* y, const float* x, int64_t n) {
        for (int64_t i = 0; i < n; ++i) {
            y[i] = kern::tanh(x[i]);
        }
    };
}

RowFn
avx2TanhRow()
{
    return [](float* y, const float* x, int64_t n) {
        kern::unaryRow(KernelIsa::kAvx2, kern::UnOp::kTanh, y, x, n);
    };
}

RowFn
avx2ExpRow()
{
    return [](float* y, const float* x, int64_t n) {
        kern::detail::expRowAvx2(y, x, n);
    };
}

/** Mismatch count over xs, with the first few described in *log. */
uint64_t
countMismatches(const RowFn& fn, RefFn ref, const std::vector<float>& xs,
                std::string* log)
{
    std::vector<float> ys(xs.size());
    fn(ys.data(), xs.data(), static_cast<int64_t>(xs.size()));
    uint64_t bad = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
        const uint32_t want = std::bit_cast<uint32_t>(ref(xs[i]));
        const uint32_t got = std::bit_cast<uint32_t>(ys[i]);
        if (want != got) {
            if (bad < 5 && log != nullptr) {
                std::ostringstream os;
                os << std::hex << " x=0x" << std::bit_cast<uint32_t>(xs[i])
                   << " libm=0x" << want << " got=0x" << got;
                *log += os.str();
            }
            ++bad;
        }
    }
    return bad;
}

/** Patterns first, first + step, ... below end, in kBlock batches. */
uint64_t
sweep(const RowFn& fn, RefFn ref, uint64_t first, uint64_t end,
      uint64_t step, std::string* log)
{
    uint64_t bad = 0;
    std::vector<float> xs;
    xs.reserve(kBlock);
    for (uint64_t b = first; b < end; b += step) {
        xs.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));
        if (static_cast<int64_t>(xs.size()) == kBlock) {
            bad += countMismatches(fn, ref, xs, log);
            xs.clear();
        }
    }
    return bad + countMismatches(fn, ref, xs, log);
}

/**
 * The cut points of fdlibm's tanhf (2^-55, 1, 22) and of the expm1f it
 * calls on 2|x| (2^-25, 0.5 ln2, 1.5 ln2, the k = 22/23 and 56/57
 * steps, all halved into tanh's argument), glibc expf's |x| >= 88 slow
 * path and its overflow and underflow thresholds: each with 16
 * neighbours per side, both signs, and the specials.
 */
std::vector<float>
cutPoints()
{
    const float invln2 = 1.4426950216f;
    const float centers[] = {
        0x1p-55f, 1.0f, 22.0f, 0x1p-26f,
        std::bit_cast<float>(0x3eb17218u) / 2,
        std::bit_cast<float>(0x3f851592u) / 2,
        2.5f / (2.0f * invln2), 22.5f / (2.0f * invln2),
        56.5f / (2.0f * invln2), 88.0f, 0x1.62e42ep6f, 0x1.9fe368p6f,
        0x1.9d1d9ep6f, 44.0f, 2.0f};
    std::vector<float> xs;
    for (const float c : centers) {
        for (const float s : {c, -c}) {
            const uint32_t b = std::bit_cast<uint32_t>(s);
            for (int d = -16; d <= 16; ++d) {
                xs.push_back(
                    std::bit_cast<float>(b + static_cast<uint32_t>(d)));
            }
        }
    }
    for (const uint32_t b : {0x00000000u, 0x80000000u, 0x00000001u,
                             0x807fffffu, 0x7f800000u, 0xff800000u,
                             0x7fc00000u, 0xffc00000u, 0x7f800001u,
                             0xff812345u, 0x7fffffffu, 0x7f7fffffu}) {
        xs.push_back(std::bit_cast<float>(b));
    }
    return xs;
}

/** Every cut point in each lane of an 8-lane block and in the tail. */
void
expectCutPointsExact(const RowFn& fn, RefFn ref)
{
    const std::vector<float> cuts = cutPoints();
    for (int shift = 0; shift < 11; ++shift) {
        std::vector<float> xs(static_cast<size_t>(shift), 0.5f);
        xs.insert(xs.end(), cuts.begin(), cuts.end());
        std::string log;
        EXPECT_EQ(countMismatches(fn, ref, xs, &log), 0u)
            << "shift " << shift << ":" << log;
    }
}

bool
avx2Supported()
{
    return kernelIsaSupported(KernelIsa::kAvx2);
}

TEST(VecMath, ScalarTanhPortMatchesLibm)
{
    std::string log;
    EXPECT_EQ(sweep(scalarTanhRow(), libmTanh, 0, uint64_t{1} << 32, 257,
                    &log),
              0u)
        << log;
    expectCutPointsExact(scalarTanhRow(), libmTanh);
}

TEST(VecMath, Avx2TanhMatchesLibm)
{
    if (!avx2Supported()) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    std::string log;
    EXPECT_EQ(sweep(avx2TanhRow(), libmTanh, 0, uint64_t{1} << 32, 257,
                    &log),
              0u)
        << log;
    expectCutPointsExact(avx2TanhRow(), libmTanh);
}

TEST(VecMath, Avx2ExpMatchesLibm)
{
    if (!avx2Supported()) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    std::string log;
    EXPECT_EQ(sweep(avx2ExpRow(), libmExp, 0, uint64_t{1} << 32, 257,
                    &log),
              0u)
        << log;
    expectCutPointsExact(avx2ExpRow(), libmExp);
}

/** All 2^32 patterns, split over 4 threads. */
uint64_t
exhaustive(const RowFn& fn, RefFn ref, std::string* log)
{
    constexpr int kThreads = 4;
    const uint64_t total = uint64_t{1} << 32;
    std::vector<uint64_t> bad(kThreads, 0);
    std::vector<std::string> logs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            bad[t] = sweep(fn, ref, total / kThreads * t,
                           total / kThreads * (t + 1), 1, &logs[t]);
        });
    }
    uint64_t sum = 0;
    for (int t = 0; t < kThreads; ++t) {
        pool[t].join();
        sum += bad[t];
        *log += logs[t];
    }
    return sum;
}

TEST(VecMath, DISABLED_ExhaustiveSweep)
{
    std::string log;
    EXPECT_EQ(exhaustive(scalarTanhRow(), libmTanh, &log), 0u)
        << "scalar tanh:" << log;
    if (!avx2Supported()) {
        GTEST_SKIP() << "avx2 tier unsupported on this host/build";
    }
    log.clear();
    EXPECT_EQ(exhaustive(avx2TanhRow(), libmTanh, &log), 0u)
        << "avx2 tanh:" << log;
    log.clear();
    EXPECT_EQ(exhaustive(avx2ExpRow(), libmExp, &log), 0u)
        << "avx2 exp:" << log;
}

}  // namespace
}  // namespace recstack
