#ifndef RECSTACK_OPS_KERNELS_IMPL_H_
#define RECSTACK_OPS_KERNELS_IMPL_H_

/**
 * @file
 * Internal per-tier entry points behind the kern:: dispatch layer
 * (kernels.cc). Not part of the operator-facing API — include
 * ops/kernels.h instead.
 *
 * The avx2 symbols exist on every platform so kernels.cc links
 * unconditionally; on a build without AVX2 support
 * (RECSTACK_HAVE_AVX2_BUILD undefined) they forward to the scalar
 * tier, and the dispatch layer never selects them anyway because
 * kernelIsaSupported(kAvx2) is false.
 */

#include <bit>
#include <cstdint>

#include "ops/kernels.h"

namespace recstack {
namespace kern {
namespace detail {

float dotBiasScalar(float bias, const float* x, const float* w, int64_t k);
void fcRowsScalar(const float* x, const float* w, const float* b, float* y,
                  int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act);
void batchMatMulRowsScalar(const float* a, const float* b, float* c,
                           int64_t lo, int64_t hi, int64_t m, int64_t k,
                           int64_t n);
void rowAddScalar(float* yrow, const float* src, int64_t dim);
void rowAddScaledScalar(float* yrow, const float* src, float scale,
                        int64_t dim);
void rowScaleScalar(float* yrow, float scale, int64_t dim);
void rowCopyScalar(float* dst, const float* src, int64_t dim);
void binaryRowScalar(BinOp op, float* y, const float* a, const float* b,
                     int64_t n);
void unaryRowScalar(UnOp op, float* y, const float* x, int64_t n);
/** The gate elements j in [from, hidden) of gruGateRow. */
void gruGateRowScalar(const float* gx, const float* gh, const float* hrow,
                      const float* att, float* yrow, int64_t from,
                      int64_t hidden);

float dotBiasAvx2(float bias, const float* x, const float* w, int64_t k);
void fcRowsAvx2(const float* x, const float* w, const float* b, float* y,
                int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act);
void batchMatMulRowsAvx2(const float* a, const float* b, float* c,
                         int64_t lo, int64_t hi, int64_t m, int64_t k,
                         int64_t n);
void rowAddAvx2(float* yrow, const float* src, int64_t dim);
void rowAddScaledAvx2(float* yrow, const float* src, float scale,
                      int64_t dim);
void rowScaleAvx2(float* yrow, float scale, int64_t dim);
void rowCopyAvx2(float* dst, const float* src, int64_t dim);
void binaryRowAvx2(BinOp op, float* y, const float* a, const float* b,
                   int64_t n);
void unaryRowAvx2(UnOp op, float* y, const float* x, int64_t n);
void gruGateRowAvx2(const float* gx, const float* gh, const float* hrow,
                    const float* att, float* yrow, int64_t hidden);
/**
 * y[i] = expf(x[i]) on the avx2 tier: the 8-lane reproduction of
 * glibc's FMA expf behind the avx2 sigmoid, exposed so the VecMath
 * tests can compare it with std::exp directly.
 */
void expRowAvx2(float* y, const float* x, int64_t n);

/** Shared scalar activation (applied to the fp32 accumulator). */
float applyFcAct(FcAct act, float v);

/**
 * fdlibm's expm1f constants, shared by the scalar tanh port and its
 * avx2 twin so both read the same bits: ln2 split into a high part
 * with trailing zero bits and the low remainder, 1/ln2, and the
 * scaled polynomial Q1..Q5.
 */
inline constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
inline constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
inline constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
inline constexpr float kExpm1Q[5] = {
    std::bit_cast<float>(0xbd088889u),  // -3.3333335072e-02
    std::bit_cast<float>(0x3ad00d01u),  //  1.5873016091e-03
    std::bit_cast<float>(0xb8a670cdu),  // -7.9365076090e-05
    std::bit_cast<float>(0x36867e54u),  //  4.0082177293e-06
    std::bit_cast<float>(0xb457edbbu),  // -2.0109921195e-07
};
/** tanhf's `tiny`: 1 - tiny rounds to 1 and raises inexact. */
inline constexpr float kTanhTiny = 1.0e-30f;

}  // namespace detail
}  // namespace kern
}  // namespace recstack

#endif  // RECSTACK_OPS_KERNELS_IMPL_H_
