/**
 * @file
 * Scalar kernel tier: the original pre-SIMD inner loops, verbatim.
 * This tier is the numerics reference — RECSTACK_ISA=scalar output
 * must stay byte-identical to the historical kernels (the golden
 * snapshots and every pre-existing differential test were produced
 * by exactly these loops). Do not "optimize" the accumulation order
 * here; change docs/vectorization.md's tolerance policy instead.
 */

#include <cmath>

#include "ops/kernels_impl.h"

namespace recstack {
namespace kern {
namespace detail {

float
applyFcAct(FcAct act, float v)
{
    switch (act) {
      case FcAct::kNone:
        return v;
      case FcAct::kRelu:
        return v > 0.0f ? v : 0.0f;
      case FcAct::kSigmoid:
        return 1.0f / (1.0f + std::exp(-v));
      case FcAct::kTanh:
        return std::tanh(v);
    }
    return v;
}

float
dotBiasScalar(float bias, const float* x, const float* w, int64_t k)
{
    float acc = bias;
    for (int64_t c = 0; c < k; ++c) {
        acc += x[c] * w[c];
    }
    return acc;
}

void
fcRowsScalar(const float* x, const float* w, const float* b, float* y,
             int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act)
{
    for (int64_t i = lo; i < hi; ++i) {
        const float* xrow = x + i * k;
        float* yrow = y + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float acc = dotBiasScalar(b[j], xrow, w + j * k, k);
            yrow[j] = applyFcAct(act, acc);
        }
    }
}

void
batchMatMulRowsScalar(const float* a, const float* b, float* c, int64_t lo,
                      int64_t hi, int64_t m, int64_t k, int64_t n)
{
    for (int64_t r = lo; r < hi; ++r) {
        const int64_t bb = r / m;
        const int64_t i = r % m;
        const float* arow = a + (bb * m + i) * k;
        const float* bbase = b + bb * k * n;
        float* crow = c + (bb * m + i) * n;
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t q = 0; q < k; ++q) {
                acc += arow[q] * bbase[q * n + j];
            }
            crow[j] = acc;
        }
    }
}

void
rowAddScalar(float* yrow, const float* src, int64_t dim)
{
    for (int64_t d = 0; d < dim; ++d) {
        yrow[d] += src[d];
    }
}

void
rowAddScaledScalar(float* yrow, const float* src, float scale, int64_t dim)
{
    for (int64_t d = 0; d < dim; ++d) {
        yrow[d] += scale * src[d];
    }
}

void
rowScaleScalar(float* yrow, float scale, int64_t dim)
{
    for (int64_t d = 0; d < dim; ++d) {
        yrow[d] *= scale;
    }
}

void
rowCopyScalar(float* dst, const float* src, int64_t dim)
{
    for (int64_t d = 0; d < dim; ++d) {
        dst[d] = src[d];
    }
}

void
binaryRowScalar(BinOp op, float* y, const float* a, const float* b,
                int64_t n)
{
    switch (op) {
      case BinOp::kAdd:
        for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
        break;
      case BinOp::kSub:
        for (int64_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
        break;
      case BinOp::kMul:
        for (int64_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
        break;
    }
}

}  // namespace detail
}  // namespace kern
}  // namespace recstack
