/**
 * @file
 * Scalar kernel tier: the original pre-SIMD inner loops, verbatim,
 * plus the one sigmoid and tanh of src/ops (kern::sigmoid, and
 * kern::tanh, a port of fdlibm's tanhf that the avx2 tier mirrors).
 * This tier is the numerics reference — RECSTACK_ISA=scalar output
 * must stay byte-identical to the historical kernels (the golden
 * snapshots and every pre-existing differential test were produced
 * by exactly these loops). Do not "optimize" the accumulation order
 * here; change docs/vectorization.md's tolerance policy instead.
 */

#include <bit>
#include <cmath>
#include <cstdint>

#include "ops/kernels_impl.h"

namespace recstack {
namespace kern {

/*
 * tanh below is fdlibm's tanhf, and expm1fForTanh the part of
 * fdlibm's expm1f it reaches, as glibc builds both (s_tanhf.c and
 * s_expm1f.c, float versions by Ian Lance Taylor, Cygnus Support):
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */

namespace {

/** y * 2^k by an integer add to the exponent field, as fdlibm does. */
float
addToExponent(float y, int32_t k)
{
    return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                                (static_cast<uint32_t>(k) << 23));
}

/**
 * expm1f for the arguments tanh passes, 2|x| in [2, 44) and -2|x| in
 * (-2, 0): finite, below the overflow cut and never k == 1, so those
 * branches of expm1f are left out. Every other operation is fdlibm's,
 * in its order; the float-to-int conversion truncates, as C's does.
 */
float
expm1fForTanh(float x)
{
    const uint32_t hx = std::bit_cast<uint32_t>(x) & 0x7fffffffu;
    const bool neg = std::signbit(x);
    int32_t k = 0;
    float c = 0.0f;
    if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
        float hi;
        float lo;
        if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
            hi = neg ? x + detail::kLn2Hi : x - detail::kLn2Hi;
            lo = neg ? -detail::kLn2Lo : detail::kLn2Lo;
            k = neg ? -1 : 1;
        } else {
            k = static_cast<int32_t>(detail::kInvLn2 * x +
                                     (neg ? -0.5f : 0.5f));
            const float t = static_cast<float>(k);
            hi = x - t * detail::kLn2Hi;  // t*ln2_hi is exact here
            lo = t * detail::kLn2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < 0x33000000u) {  // |x| < 2^-25: x itself
        return x;
    }

    // x is now in the primary range.
    using detail::kExpm1Q;
    const float hfx = 0.5f * x;
    const float hxs = x * hfx;
    const float r1 =
        1.0f + hxs * (kExpm1Q[0] + hxs * (kExpm1Q[1] + hxs * (kExpm1Q[2] +
                      hxs * (kExpm1Q[3] + hxs * kExpm1Q[4]))));
    float t = 3.0f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0) {
        return x - (x * e - hxs);  // c is 0
    }
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1) {
        return 0.5f * (x - e) - 0.5f;
    }
    if (k <= -2 || k > 56) {  // suffices to return exp(x) - 1
        return addToExponent(1.0f - (e - x), k) - 1.0f;
    }
    if (k < 23) {
        t = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1-2^-k
        return addToExponent(t - (e - x), k);
    }
    t = std::bit_cast<float>(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    return addToExponent((x - (e + t)) + 1.0f, k);
}

}  // namespace

float
sigmoid(float v)
{
    return 1.0f / (1.0f + std::exp(-v));
}

float
tanh(float x)
{
    const uint32_t jx = std::bit_cast<uint32_t>(x);
    const uint32_t ix = jx & 0x7fffffffu;
    const bool neg = (jx >> 31) != 0;

    if (ix >= 0x7f800000u) {  // x is inf or NaN
        return neg ? 1.0f / x - 1.0f    // tanh(-inf) = -1, NaN stays NaN
                   : 1.0f / x + 1.0f;  // tanh(+inf) = +1
    }
    float z;
    if (ix < 0x41b00000u) {  // |x| < 22
        if (ix == 0) {
            return x;  // x == +-0
        }
        if (ix < 0x24000000u) {  // |x| < 2^-55: tanh(small) = small
            return x * (1.0f + x);
        }
        if (ix >= 0x3f800000u) {  // |x| >= 1
            const float t = expm1fForTanh(2.0f * std::fabs(x));
            z = 1.0f - 2.0f / (t + 2.0f);
        } else {
            const float t = expm1fForTanh(-2.0f * std::fabs(x));
            z = -t / (t + 2.0f);
        }
    } else {  // |x| >= 22: +-1
        z = 1.0f - detail::kTanhTiny;
    }
    return neg ? -z : z;
}

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
        return sigmoid(v);
      case FcAct::kTanh:
        return tanh(v);
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

void
unaryRowScalar(UnOp op, float* y, const float* x, int64_t n)
{
    switch (op) {
      case UnOp::kSigmoid:
        for (int64_t i = 0; i < n; ++i) y[i] = sigmoid(x[i]);
        break;
      case UnOp::kTanh:
        for (int64_t i = 0; i < n; ++i) y[i] = tanh(x[i]);
        break;
    }
}

void
gruGateRowScalar(const float* gx, const float* gh, const float* hrow,
                 const float* att, float* yrow, int64_t from, int64_t hidden)
{
    for (int64_t j = from; j < hidden; ++j) {
        const float r = sigmoid(gx[j] + gh[j]);
        float z = sigmoid(gx[hidden + j] + gh[hidden + j]);
        if (att != nullptr) {
            z = z * *att;
        }
        const float n = tanh(gx[2 * hidden + j] + r * gh[2 * hidden + j]);
        const float zn = z * n;
        const float zh = z * hrow[j];
        yrow[j] = (n - zn) + zh;
    }
}

}  // namespace detail
}  // namespace kern
}  // namespace recstack
