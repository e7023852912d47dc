/**
 * @file
 * kern:: dispatch layer: one switch per kernel routing to the tier
 * implementations in kernels_scalar.cc / kernels_avx2.cc. Callers
 * resolve the KernelIsa once per Operator::run (see kernels.h); the
 * switch itself is branch-predicted noise next to the loops behind
 * it. An unknown enumerator (future tier compiled out) falls back to
 * scalar rather than crashing, matching the dispatch policy in
 * common/cpu_features.h.
 */

#include "ops/kernels.h"

#include "ops/kernels_impl.h"

namespace recstack {
namespace kern {

float
dotBias(KernelIsa isa, float bias, const float* x, const float* w,
        int64_t k)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        return detail::dotBiasAvx2(bias, x, w, k);
      case KernelIsa::kScalar:
        break;
    }
    return detail::dotBiasScalar(bias, x, w, k);
}

void
fcRows(KernelIsa isa, const float* x, const float* w, const float* b,
       float* y, int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::fcRowsAvx2(x, w, b, y, lo, hi, n, k, act);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::fcRowsScalar(x, w, b, y, lo, hi, n, k, act);
}

void
batchMatMulRows(KernelIsa isa, const float* a, const float* b, float* c,
                int64_t lo, int64_t hi, int64_t m, int64_t k, int64_t n)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::batchMatMulRowsAvx2(a, b, c, lo, hi, m, k, n);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::batchMatMulRowsScalar(a, b, c, lo, hi, m, k, n);
}

void
rowAdd(KernelIsa isa, float* yrow, const float* src, int64_t dim)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::rowAddAvx2(yrow, src, dim);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::rowAddScalar(yrow, src, dim);
}

void
rowAddScaled(KernelIsa isa, float* yrow, const float* src, float scale,
             int64_t dim)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::rowAddScaledAvx2(yrow, src, scale, dim);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::rowAddScaledScalar(yrow, src, scale, dim);
}

void
rowScale(KernelIsa isa, float* yrow, float scale, int64_t dim)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::rowScaleAvx2(yrow, scale, dim);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::rowScaleScalar(yrow, scale, dim);
}

void
rowCopy(KernelIsa isa, float* dst, const float* src, int64_t dim)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::rowCopyAvx2(dst, src, dim);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::rowCopyScalar(dst, src, dim);
}

void
binaryRow(KernelIsa isa, BinOp op, float* y, const float* a, const float* b,
          int64_t n)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::binaryRowAvx2(op, y, a, b, n);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::binaryRowScalar(op, y, a, b, n);
}

void
unaryRow(KernelIsa isa, UnOp op, float* y, const float* x, int64_t n)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::unaryRowAvx2(op, y, x, n);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::unaryRowScalar(op, y, x, n);
}

void
gruGateRow(KernelIsa isa, const float* gx, const float* gh,
           const float* hrow, const float* att, float* yrow, int64_t hidden)
{
    switch (isa) {
      case KernelIsa::kAvx2:
        detail::gruGateRowAvx2(gx, gh, hrow, att, yrow, hidden);
        return;
      case KernelIsa::kScalar:
        break;
    }
    detail::gruGateRowScalar(gx, gh, hrow, att, yrow, 0, hidden);
}

}  // namespace kern
}  // namespace recstack
