/**
 * @file
 * AVX2+FMA kernel tier. This translation unit is the only one built
 * with -mavx2 -mfma (and -ffp-contract=off, so scalar tail code and
 * the mul-then-add pooling primitives keep the scalar tier's
 * rounding); the dispatch layer never routes here unless the host
 * CPU reports AVX2+FMA at runtime.
 *
 * Two numerics classes (see ops/kernels.h and docs/vectorization.md):
 *
 *  - Lane-parallel kernels (rowAdd/rowAddScaled/rowScale/rowCopy,
 *    binaryRow, unaryRow, gruGateRow, batchMatMulRows): each output
 *    element sees exactly the scalar tier's operation sequence, so
 *    these are bit-identical to scalar. unaryRow and gruGateRow get
 *    there through two 8-lane functions that return libm's bits:
 *    tanh8 (every branch of fdlibm's tanhf, blended per lane) and
 *    exp8 (glibc's FMA expf).
 *  - K-reduction kernels (dotBias, fcRows): the reduction is split
 *    over the 8 lanes of ONE accumulator (lane l sums the c ≡ l
 *    mod 8 products, FMA-fused), reduced by a fixed pairwise tree,
 *    with the <8 leftover elements added sequentially after the
 *    reduction. Reordering + FMA changes rounding vs scalar
 *    (tolerance applies), but the order is canonical within the
 *    tier: fcRows' register tiles (4 x-rows x 3 columns, walked
 *    over L2-sized column panels of W) give each output element its
 *    own accumulator running this exact recipe, so FCOp, FusedFCOp
 *    (over gathered concat rows) and the GRU gate matmuls all
 *    produce bit-identical values for the same (bias, x, w, k).
 *
 * On builds without AVX2 support every entry point forwards to the
 * scalar tier (and kernelIsaSupported(kAvx2) is false, so they are
 * unreachable through normal dispatch anyway).
 */

#include "ops/kernels_impl.h"

#include <cmath>

#if defined(RECSTACK_HAVE_AVX2_BUILD) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

namespace recstack {
namespace kern {
namespace detail {
namespace {

/// fcRowsAvx2 register tile: 4 x-rows x 3 columns = 12 accumulators,
/// plus 3 weight registers and one x register: all 16 ymm registers.
constexpr int kTileRows = 4;
constexpr int kTileCols = 3;

/// Bytes of W in one column panel: small enough to stay in L2 while
/// every row tile of an fcRows call passes over it.
constexpr int64_t kPanelBytes = 256 * 1024;

/**
 * Fixed pairwise horizontal sum:
 * ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
 */
inline float
hsum8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);               // l + l+4
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));      // + lanes 2,3
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));  // + lane 1
    return _mm_cvtss_f32(s);
}

/**
 * The R x C tile of pre-activation FC outputs at rows i.., columns
 * j... Every element owns one 8-lane accumulator (c ascending by 8),
 * then adds bias, hsum8 and the sequential <8 tail exactly as
 * dotBiasAvx2 does, so the tile shape cannot change a bit. The unroll
 * pragmas keep the accumulators in registers; without them GCC -O2
 * spills the array inside the c loop.
 */
template <int R, int C>
inline void
fcTile(const float* x, const float* w, const float* b, float* y, int64_t i,
       int64_t j, int64_t n, int64_t k)
{
    const int64_t kv = k & ~int64_t{7};
    const float* xr[R];
    const float* wr[C];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
        xr[r] = x + (i + r) * k;
    }
#pragma GCC unroll 4
    for (int q = 0; q < C; ++q) {
        wr[q] = w + (j + q) * k;
    }
    __m256 acc[R][C];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int q = 0; q < C; ++q) {
            acc[r][q] = _mm256_setzero_ps();
        }
    }
    for (int64_t c = 0; c < kv; c += 8) {
        __m256 wv[C];
#pragma GCC unroll 4
        for (int q = 0; q < C; ++q) {
            wv[q] = _mm256_loadu_ps(wr[q] + c);
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m256 xv = _mm256_loadu_ps(xr[r] + c);
#pragma GCC unroll 4
            for (int q = 0; q < C; ++q) {
                acc[r][q] = _mm256_fmadd_ps(xv, wv[q], acc[r][q]);
            }
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int q = 0; q < C; ++q) {
            float v = b[j + q];
            if (kv > 0) {
                v += hsum8(acc[r][q]);
            }
            for (int64_t c = kv; c < k; ++c) {
                v += xr[r][c] * wr[q][c];
            }
            y[(i + r) * n + j + q] = v;
        }
    }
}

/** Rows i..i+R-1 against the W columns [j0, j1) of one panel. */
template <int R>
inline void
fcPanelRows(const float* x, const float* w, const float* b, float* y,
            int64_t i, int64_t j0, int64_t j1, int64_t n, int64_t k)
{
    int64_t j = j0;
    for (; j + kTileCols <= j1; j += kTileCols) {
        fcTile<R, kTileCols>(x, w, b, y, i, j, n, k);
    }
    for (; j < j1; ++j) {
        fcTile<R, 1>(x, w, b, y, i, j, n, k);
    }
}

/**
 * y[i] = v > 0 ? v : 0 over n floats: the ordered compare keeps v's
 * bits, everything else (NaN, -0.0, -inf, negatives) ANDs to +0.0,
 * as the scalar conditional on the <8 tail does.
 */
inline void
reluInPlace(float* y, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    const int64_t nv = n & ~int64_t{7};
    for (int64_t i = 0; i < nv; i += 8) {
        const __m256 v = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(
            y + i, _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), v));
    }
    for (int64_t i = nv; i < n; ++i) {
        y[i] = y[i] > 0.0f ? y[i] : 0.0f;
    }
}

/**
 * y[i] = a[i] op b[i] over the whole 8-lane blocks of n. Each block
 * loads a and b before it stores y, so y == a (or b) is safe.
 */
template <typename VecOp>
inline int64_t
binaryBlocks(float* y, const float* a, const float* b, int64_t n, VecOp op)
{
    const int64_t nv = n & ~int64_t{7};
    for (int64_t i = 0; i < nv; i += 8) {
        _mm256_storeu_ps(
            y + i, op(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
    }
    return nv;
}

/*
 * exp8 below is the expf of ARM's optimized-routines (math/expf.c and
 * math/exp2f_data.c, by Szabolcs Nagy), which glibc ships as its expf.
 * On hosts with AVX2 and FMA, the same condition that enables this
 * tier, glibc's ifunc picks the copy compiled with -mfma, where the
 * compiler fuses kd = InvLn2N * x + Shift, r = InvLn2N * x - kd and
 * the three polynomial steps. exp8 makes those five FMAs explicit,
 * so each lane returns that expf's bits.
 */

/// 2^(i/32) as double bits, less i << 47: tab[k % 32] + (k << 47) is
/// the double 2^(k/32) for any |k| < 150 * 32.
alignas(32) constexpr uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;

/** expf of 4 floats (|x| < 88), in double as glibc's expf computes it. */
inline __m128
exp4(__m128 x)
{
    const __m256d xd = _mm256_cvtps_pd(x);
    const __m256d inv = _mm256_set1_pd(kExpInvLn2N);
    const __m256d shift = _mm256_set1_pd(kExpShift);
    // x*N/ln2 = k + r with r in [-1/2, 1/2]; the shift rounds to
    // nearest and leaves k in the low bits of kd.
    const __m256d kd_shifted = _mm256_fmadd_pd(inv, xd, shift);
    const __m256i ki = _mm256_castpd_si256(kd_shifted);
    const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
    const __m256d r = _mm256_fmsub_pd(inv, xd, kd);
    // s = 2^(k/N) from the table entry plus k in the exponent field.
    const __m256i t = _mm256_add_epi64(
        _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(kExp2Tab),
            _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
        _mm256_slli_epi64(ki, 47));
    const __m256d s = _mm256_castsi256_pd(t);
    // exp(x) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1).
    const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r,
                                      _mm256_set1_pd(kExpC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r,
                                _mm256_set1_pd(1.0));
    y = _mm256_fmadd_pd(z, r2, y);
    y = _mm256_mul_pd(y, s);
    return _mm256_cvtpd_ps(y);
}

/** Lanes whose |bits| (sign cleared) exceed bound, as a bit mask. */
inline int
laneAbsAbove(__m256 x, uint32_t bound)
{
    const __m256i ax = _mm256_and_si256(_mm256_castps_si256(x),
                                        _mm256_set1_epi32(0x7fffffff));
    return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
        ax, _mm256_set1_epi32(static_cast<int32_t>(bound)))));
}

/**
 * Per-lane fallback for a block with a lane outside a vector
 * function's domain: f on every lane, one scalar call each.
 */
template <typename Fn>
inline __m256
perLane(__m256 x, Fn f)
{
    alignas(32) float v[8];
    _mm256_store_ps(v, x);
    for (float& e : v) {
        e = f(e);
    }
    return _mm256_load_ps(v);
}

/**
 * expf(x) per lane with libm's bits. A block with a lane where
 * |x| >= 88 or x is NaN (glibc's own slow-path test) calls std::exp
 * on each lane instead.
 */
inline __m256
exp8(__m256 x)
{
    if (laneAbsAbove(x, 0x42afffffu) != 0) {
        return perLane(x, [](float v) { return std::exp(v); });
    }
    return _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)),
                           exp4(_mm256_castps256_ps128(x)));
}

/** 1 / (1 + e^-v) per lane: kern::sigmoid's operations and bits. */
inline __m256
sigmoid8(__m256 v)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 e = exp8(_mm256_xor_ps(v, _mm256_set1_ps(-0.0f)));
    return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256
blendIf(__m256 a, __m256 b, __m256i take_b)
{
    return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(take_b));
}

inline __m256i
gtInt(__m256i a, int32_t b)
{
    return _mm256_cmpgt_epi32(a, _mm256_set1_epi32(b));
}

inline __m256i
ltInt(__m256i a, int32_t b)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(b), a);
}

inline __m256
addExponent(__m256 y, __m256i k_shifted)
{
    return _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y), k_shifted));
}

/*
 * expm1Tanh8 and tanh8 compute fdlibm's expm1f and tanhf (see
 * kern::tanh in kernels_scalar.cc) on 8 lanes: every branch on every
 * lane, in the scalar code's operations and order, then one blend per
 * branch by the lane's own condition.
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

/** expm1f over the arguments tanh passes (finite, |x| < 44, k != 1). */
inline __m256
expm1Tanh8(__m256 x)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256i bits = _mm256_castps_si256(x);
    const __m256i hx =
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff));
    const __m256 sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0f));

    // Argument reduction: k = +-1 for 0.5 ln2 < |x| < 1.5 ln2, else
    // the truncation of invln2 * x +- 0.5.
    const __m256i k_near = _mm256_or_si256(_mm256_srai_epi32(bits, 31),
                                           _mm256_set1_epi32(1));
    const __m256i k_far = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(kInvLn2), x),
        _mm256_or_ps(half, sign)));
    const __m256i reduce = gtInt(hx, 0x3eb17218);
    __m256i k = _mm256_blendv_epi8(k_far, k_near, ltInt(hx, 0x3f851592));
    k = _mm256_and_si256(k, reduce);
    const __m256 t = _mm256_cvtepi32_ps(k);
    const __m256 hi =
        _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(kLn2Hi)));
    const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(kLn2Lo));
    const __m256 xr_reduced = _mm256_sub_ps(hi, lo);
    const __m256 xr = blendIf(x, xr_reduced, reduce);
    const __m256 c = _mm256_and_ps(
        _mm256_sub_ps(_mm256_sub_ps(hi, xr_reduced), lo),
        _mm256_castsi256_ps(reduce));

    // x is now in the primary range.
    const __m256 hfx = _mm256_mul_ps(half, xr);
    const __m256 hxs = _mm256_mul_ps(xr, hfx);
    __m256 p = _mm256_mul_ps(hxs, _mm256_set1_ps(kExpm1Q[4]));
    for (int q = 3; q >= 0; --q) {
        p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kExpm1Q[q]),
                                             p));
    }
    const __m256 r1 = _mm256_add_ps(one, p);
    const __m256 tt = _mm256_sub_ps(_mm256_set1_ps(3.0f),
                                    _mm256_mul_ps(r1, hfx));
    __m256 e = _mm256_mul_ps(
        hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                           _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                         _mm256_mul_ps(xr, tt))));
    const __m256 y_k0 =
        _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
    e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
    const __m256 y_km1 =
        _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
    const __m256 e_minus_x = _mm256_sub_ps(e, xr);
    const __m256i k_exp = _mm256_slli_epi32(k, 23);
    // k <= -2 or k > 56.
    const __m256 y_far = _mm256_sub_ps(
        addExponent(_mm256_sub_ps(one, e_minus_x), k_exp), one);
    // 2 <= k <= 22: t = 1 - 2^-k.
    const __m256 t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f800000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
    const __m256 y_mid = addExponent(_mm256_sub_ps(t_mid, e_minus_x),
                                     k_exp);
    // 23 <= k <= 56: t = 2^-k.
    const __m256 t_high = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
    const __m256 y_high = addExponent(
        _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, t_high)), one),
        k_exp);

    __m256 y = y_far;
    y = blendIf(y, y_mid, _mm256_and_si256(gtInt(k, 1), ltInt(k, 23)));
    y = blendIf(y, y_high, _mm256_and_si256(gtInt(k, 22), ltInt(k, 57)));
    y = blendIf(y, y_km1, _mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)));
    y = blendIf(y, y_k0, _mm256_cmpeq_epi32(k, _mm256_setzero_si256()));
    return blendIf(y, x, ltInt(hx, 0x33000000));  // |x| < 2^-25: x
}

/**
 * tanh per lane with kern::tanh's bits. A block with an inf or NaN
 * lane runs kern::tanh on each lane instead.
 */
inline __m256
tanh8(__m256 x)
{
    if (laneAbsAbove(x, 0x7f7fffffu) != 0) {
        return perLane(x, [](float v) { return tanh(v); });
    }
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 two = _mm256_set1_ps(2.0f);
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x),
                                        _mm256_set1_epi32(0x7fffffff));
    const __m256 ax = _mm256_castsi256_ps(ix);
    // |x| >= 1: z = 1 - 2/(expm1(2|x|) + 2); else -t/(t + 2) with
    // t = expm1(-2|x|). One divide serves both.
    const __m256i ge1 = gtInt(ix, 0x3f7fffff);
    const __m256 t = expm1Tanh8(blendIf(
        _mm256_mul_ps(_mm256_set1_ps(-2.0f), ax), _mm256_mul_ps(two, ax),
        ge1));
    const __m256 q = _mm256_div_ps(
        blendIf(_mm256_xor_ps(t, sign_mask), two, ge1),
        _mm256_add_ps(t, two));
    __m256 z = blendIf(q, _mm256_sub_ps(one, q), ge1);
    // |x| >= 22: 1 - tiny.
    z = blendIf(z, _mm256_set1_ps(1.0f - kTanhTiny), gtInt(ix, 0x41afffff));
    z = _mm256_xor_ps(z, _mm256_and_ps(x, sign_mask));
    // |x| < 2^-55: x * (1 + x), which is also x itself for x == +-0.
    return blendIf(z, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
                   ltInt(ix, 0x24000000));
}

inline __m256
unary8(UnOp op, __m256 x)
{
    return op == UnOp::kSigmoid ? sigmoid8(x) : tanh8(x);
}

}  // namespace

float
dotBiasAvx2(float bias, const float* x, const float* w, int64_t k)
{
    const int64_t kv = k & ~int64_t{7};
    float r = bias;
    if (kv > 0) {
        __m256 acc = _mm256_setzero_ps();
        for (int64_t c = 0; c < kv; c += 8) {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + c),
                                  _mm256_loadu_ps(w + c), acc);
        }
        r += hsum8(acc);
    }
    for (int64_t c = kv; c < k; ++c) {
        r += x[c] * w[c];
    }
    return r;
}

void
fcRowsAvx2(const float* x, const float* w, const float* b, float* y,
           int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act)
{
    // W column panels of about kPanelBytes, a whole number of tiles
    // wide; every row tile of [lo, hi) passes a panel while it sits in
    // L2, instead of each x-row streaming all of W from memory.
    const int64_t col_bytes =
        std::max<int64_t>(1, k) * static_cast<int64_t>(sizeof(float));
    const int64_t panel = std::max<int64_t>(
        kTileCols, kPanelBytes / col_bytes / kTileCols * kTileCols);
    for (int64_t j0 = 0; j0 < n; j0 += panel) {
        const int64_t j1 = std::min(n, j0 + panel);
        int64_t i = lo;
        for (; i + kTileRows <= hi; i += kTileRows) {
            fcPanelRows<kTileRows>(x, w, b, y, i, j0, j1, n, k);
        }
        for (; i < hi; ++i) {
            fcPanelRows<1>(x, w, b, y, i, j0, j1, n, k);
        }
    }
    // The activation maps each stored sum exactly as it would map the
    // register value (a float store is exact), in a pass of its own so
    // no call sits inside the tiles. Rows [lo, hi) of y are contiguous.
    if (act == FcAct::kRelu) {
        reluInPlace(y + lo * n, (hi - lo) * n);
    } else if (act != FcAct::kNone) {
        unaryRowAvx2(act == FcAct::kSigmoid ? UnOp::kSigmoid : UnOp::kTanh,
                     y + lo * n, y + lo * n, (hi - lo) * n);
    }
}

void
batchMatMulRowsAvx2(const float* a, const float* b, float* c, int64_t lo,
                    int64_t hi, int64_t m, int64_t k, int64_t n)
{
    const int64_t nv = n & ~int64_t{7};
    for (int64_t r = lo; r < hi; ++r) {
        const int64_t bb = r / m;
        const int64_t i = r % m;
        const float* arow = a + (bb * m + i) * k;
        const float* bbase = b + bb * k * n;
        float* crow = c + (bb * m + i) * n;
        // Lane j accumulates arow[q] * b[q][j] in ascending q with
        // mul-then-add — the scalar sequence per output element.
        for (int64_t j = 0; j < nv; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            const float* bcol = bbase + j;
            for (int64_t q = 0; q < k; ++q) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(arow[q]),
                                       _mm256_loadu_ps(bcol + q * n)));
            }
            _mm256_storeu_ps(crow + j, acc);
        }
        for (int64_t j = nv; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t q = 0; q < k; ++q) {
                acc += arow[q] * bbase[q * n + j];
            }
            crow[j] = acc;
        }
    }
}

void
rowAddAvx2(float* yrow, const float* src, int64_t dim)
{
    const int64_t dv = dim & ~int64_t{7};
    for (int64_t d = 0; d < dv; d += 8) {
        _mm256_storeu_ps(yrow + d,
                         _mm256_add_ps(_mm256_loadu_ps(yrow + d),
                                       _mm256_loadu_ps(src + d)));
    }
    for (int64_t d = dv; d < dim; ++d) {
        yrow[d] += src[d];
    }
}

void
rowAddScaledAvx2(float* yrow, const float* src, float scale, int64_t dim)
{
    // Deliberately mul-then-add (not FMA): the scalar tier rounds the
    // product before the add, and SLWS is contractually bit-identical
    // across tiers.
    const __m256 sv = _mm256_set1_ps(scale);
    const int64_t dv = dim & ~int64_t{7};
    for (int64_t d = 0; d < dv; d += 8) {
        _mm256_storeu_ps(
            yrow + d,
            _mm256_add_ps(_mm256_loadu_ps(yrow + d),
                          _mm256_mul_ps(sv, _mm256_loadu_ps(src + d))));
    }
    for (int64_t d = dv; d < dim; ++d) {
        yrow[d] += scale * src[d];
    }
}

void
rowScaleAvx2(float* yrow, float scale, int64_t dim)
{
    const __m256 sv = _mm256_set1_ps(scale);
    const int64_t dv = dim & ~int64_t{7};
    for (int64_t d = 0; d < dv; d += 8) {
        _mm256_storeu_ps(yrow + d,
                         _mm256_mul_ps(_mm256_loadu_ps(yrow + d), sv));
    }
    for (int64_t d = dv; d < dim; ++d) {
        yrow[d] *= scale;
    }
}

void
rowCopyAvx2(float* dst, const float* src, int64_t dim)
{
    const int64_t dv = dim & ~int64_t{7};
    for (int64_t d = 0; d < dv; d += 8) {
        _mm256_storeu_ps(dst + d, _mm256_loadu_ps(src + d));
    }
    for (int64_t d = dv; d < dim; ++d) {
        dst[d] = src[d];
    }
}

void
binaryRowAvx2(BinOp op, float* y, const float* a, const float* b, int64_t n)
{
    int64_t nv = 0;
    switch (op) {
      case BinOp::kAdd:
        nv = binaryBlocks(y, a, b, n, [](__m256 p, __m256 q) {
            return _mm256_add_ps(p, q);
        });
        break;
      case BinOp::kSub:
        nv = binaryBlocks(y, a, b, n, [](__m256 p, __m256 q) {
            return _mm256_sub_ps(p, q);
        });
        break;
      case BinOp::kMul:
        nv = binaryBlocks(y, a, b, n, [](__m256 p, __m256 q) {
            return _mm256_mul_ps(p, q);
        });
        break;
    }
    binaryRowScalar(op, y + nv, a + nv, b + nv, n - nv);
}

void
unaryRowAvx2(UnOp op, float* y, const float* x, int64_t n)
{
    const int64_t nv = n & ~int64_t{7};
    for (int64_t i = 0; i < nv; i += 8) {
        _mm256_storeu_ps(y + i, unary8(op, _mm256_loadu_ps(x + i)));
    }
    unaryRowScalar(op, y + nv, x + nv, n - nv);
}

void
gruGateRowAvx2(const float* gx, const float* gh, const float* hrow,
               const float* att, float* yrow, int64_t hidden)
{
    // The scalar tier's operations lane by lane: no FMA (the TU is
    // built with -ffp-contract=off), and every load of block j comes
    // before its store, so yrow == hrow is safe.
    const int64_t nv = hidden & ~int64_t{7};
    const float* gxz = gx + hidden;
    const float* ghz = gh + hidden;
    const float* gxn = gx + 2 * hidden;
    const float* ghn = gh + 2 * hidden;
    for (int64_t j = 0; j < nv; j += 8) {
        const __m256 r = sigmoid8(
            _mm256_add_ps(_mm256_loadu_ps(gx + j), _mm256_loadu_ps(gh + j)));
        __m256 z = sigmoid8(_mm256_add_ps(_mm256_loadu_ps(gxz + j),
                                          _mm256_loadu_ps(ghz + j)));
        if (att != nullptr) {
            z = _mm256_mul_ps(z, _mm256_set1_ps(*att));
        }
        const __m256 n = tanh8(_mm256_add_ps(
            _mm256_loadu_ps(gxn + j),
            _mm256_mul_ps(r, _mm256_loadu_ps(ghn + j))));
        const __m256 zn = _mm256_mul_ps(z, n);
        const __m256 zh = _mm256_mul_ps(z, _mm256_loadu_ps(hrow + j));
        _mm256_storeu_ps(yrow + j, _mm256_add_ps(_mm256_sub_ps(n, zn), zh));
    }
    gruGateRowScalar(gx, gh, hrow, att, yrow, nv, hidden);
}

void
expRowAvx2(float* y, const float* x, int64_t n)
{
    const int64_t nv = n & ~int64_t{7};
    for (int64_t i = 0; i < nv; i += 8) {
        _mm256_storeu_ps(y + i, exp8(_mm256_loadu_ps(x + i)));
    }
    for (int64_t i = nv; i < n; ++i) {
        y[i] = std::exp(x[i]);
    }
}

}  // namespace detail
}  // namespace kern
}  // namespace recstack

#else  // !RECSTACK_HAVE_AVX2_BUILD || !x86

namespace recstack {
namespace kern {
namespace detail {

float
dotBiasAvx2(float bias, const float* x, const float* w, int64_t k)
{
    return dotBiasScalar(bias, x, w, k);
}

void
fcRowsAvx2(const float* x, const float* w, const float* b, float* y,
           int64_t lo, int64_t hi, int64_t n, int64_t k, FcAct act)
{
    fcRowsScalar(x, w, b, y, lo, hi, n, k, act);
}

void
batchMatMulRowsAvx2(const float* a, const float* b, float* c, int64_t lo,
                    int64_t hi, int64_t m, int64_t k, int64_t n)
{
    batchMatMulRowsScalar(a, b, c, lo, hi, m, k, n);
}

void
rowAddAvx2(float* yrow, const float* src, int64_t dim)
{
    rowAddScalar(yrow, src, dim);
}

void
rowAddScaledAvx2(float* yrow, const float* src, float scale, int64_t dim)
{
    rowAddScaledScalar(yrow, src, scale, dim);
}

void
rowScaleAvx2(float* yrow, float scale, int64_t dim)
{
    rowScaleScalar(yrow, scale, dim);
}

void
rowCopyAvx2(float* dst, const float* src, int64_t dim)
{
    rowCopyScalar(dst, src, dim);
}

void
binaryRowAvx2(BinOp op, float* y, const float* a, const float* b, int64_t n)
{
    binaryRowScalar(op, y, a, b, n);
}

void
unaryRowAvx2(UnOp op, float* y, const float* x, int64_t n)
{
    unaryRowScalar(op, y, x, n);
}

void
gruGateRowAvx2(const float* gx, const float* gh, const float* hrow,
               const float* att, float* yrow, int64_t hidden)
{
    gruGateRowScalar(gx, gh, hrow, att, yrow, 0, hidden);
}

void
expRowAvx2(float* y, const float* x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        y[i] = std::exp(x[i]);
    }
}

}  // namespace detail
}  // namespace kern
}  // namespace recstack

#endif  // RECSTACK_HAVE_AVX2_BUILD
