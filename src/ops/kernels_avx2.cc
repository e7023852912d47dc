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
 *    binaryRow, batchMatMulRows): each output element sees exactly
 *    the scalar tier's operation sequence, so these are bit-identical
 *    to scalar.
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
        for (int64_t i = lo; i < hi; ++i) {
            float* yrow = y + i * n;
            for (int64_t j = 0; j < n; ++j) {
                yrow[j] = applyFcAct(act, yrow[j]);
            }
        }
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

}  // namespace detail
}  // namespace kern
}  // namespace recstack

#endif  // RECSTACK_HAVE_AVX2_BUILD
