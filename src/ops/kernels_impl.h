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

/** Shared scalar activation (applied to the fp32 accumulator). */
float applyFcAct(FcAct act, float v);

}  // namespace detail
}  // namespace kern
}  // namespace recstack

#endif  // RECSTACK_OPS_KERNELS_IMPL_H_
