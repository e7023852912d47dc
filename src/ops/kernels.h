#ifndef RECSTACK_OPS_KERNELS_H_
#define RECSTACK_OPS_KERNELS_H_

/**
 * @file
 * The ISA-dispatched numeric kernel tier behind src/ops/.
 *
 * Every hot inner loop of the operators (FC/FusedFC rows, BatchMatMul
 * rows, the SparseLengths* pooling primitives, the GRU gate matmuls)
 * funnels through these free functions. Operators resolve the tier
 * ONCE per run via activeKernelIsa() — before entering parallelFor —
 * and pass it down, so a single kernel invocation never mixes tiers
 * and pool workers never consult thread-local state.
 *
 * Numerics contract (docs/vectorization.md):
 *
 *  - The scalar tier reproduces the original pre-SIMD loops
 *    byte-for-byte; RECSTACK_ISA=scalar output is bit-identical to
 *    the historical kernels and the golden snapshots.
 *  - Lane-parallel kernels (rowAdd/rowAddScaled/rowScale/rowCopy,
 *    binaryRow, unaryRow, gruGateRow, batchMatMulRows) keep every
 *    output element's operation sequence identical to scalar, so the
 *    avx2 tier is BIT-IDENTICAL to scalar for SLS/SLWS/SLMean/Gather/
 *    ReduceSum/Add/Sub/Mul/Sigmoid/Tanh/BatchMatMul and for
 *    FusedGRUStep's gate math.
 *  - Transcendentals: tanh is recstack's port of fdlibm's tanhf
 *    (kern::tanh) on every tier, so no output depends on which libm's
 *    tanhf is installed; the avx2 tier evaluates every branch of it on
 *    8 lanes and blends. exp is libm's expf on the scalar tier; on
 *    avx2 it is an 8-lane reproduction of glibc's FMA expf (ARM
 *    optimized-routines), the expf glibc itself runs on the AVX2+FMA
 *    hosts this tier needs. A block with a lane outside a vector
 *    function's domain (inf/NaN for tanh, |x| >= 88 or NaN for exp)
 *    calls the scalar function per lane. tests/test_vec_math.cc
 *    compares all three with libm bit for bit.
 *    (rowAddScaled deliberately uses mul-then-add, not FMA, to keep
 *    the scalar rounding; the avx2 TU is built with -ffp-contract=off
 *    so the compiler cannot re-fuse it.)
 *  - K-reduction kernels (dotBias, fcRows) split the reduction over
 *    8 partial-sum lanes on avx2, which reorders the additions: FC,
 *    FusedFC and the GRU matmuls carry a documented ULP/relative
 *    tolerance against scalar instead of bit-equality. Within the
 *    avx2 tier the order is CANONICAL — exactly one 8-lane
 *    accumulator per output element, c ascending in steps of 8, a
 *    fixed pairwise horizontal reduction, then the <8 leftover
 *    elements added sequentially:
 *
 *        r = bias + hsum(acc8); for (c = k&~7; c < k; ++c) r += x[c]*w[c]
 *
 *    fcRows on avx2 computes 4 x-rows x 3 columns per register tile
 *    over L2-sized column panels of W, but each output element still
 *    owns one accumulator running exactly this recipe, so tiles,
 *    panels and the callers' row tiles only change when an element
 *    is computed, never its bits. Its ReLU pass is a compare-and-mask
 *    over 8 stored sums: an ordered v > 0 keeps v's bits and anything
 *    else (NaN, -0.0, -inf, negatives) becomes +0.0, which is exactly
 *    `v > 0.0f ? v : 0.0f`. Sigmoid and tanh run as one unaryRow
 *    pass over the stored sums. Every caller (FCOp, FusedFCOp over gathered concat rows,
 *    GRUStepOp/GRULayerOp gates) uses this same contract, which is
 *    what keeps the compiled/fused path bit-identical to the
 *    interpreted path at any tier
 *    (tests/test_plan_equivalence.cc, tests/test_simd_differential.cc).
 */

#include <cstdint>

#include "common/cpu_features.h"

namespace recstack {
namespace kern {

/** Activation applied to the FC accumulator before the store. */
enum class FcAct { kNone, kRelu, kSigmoid, kTanh };

/**
 * Canonical biased dot product r = bias + x·w over k elements (the
 * per-output-element kernel of FC and the GRU gate matmuls). See the
 * file comment for the avx2 accumulation order.
 */
float dotBias(KernelIsa isa, float bias, const float* x, const float* w,
              int64_t k);

/**
 * FC output rows [lo, hi): y[i, j] = act(dotBias(b[j], x_i, w_j, k))
 * for the row-major operands of FCOp (X [M,K], W [N,K], b [N],
 * Y [M,N]). Each y element matches a standalone dotBias call on the
 * same tier bit-for-bit, however the rows are split across calls.
 */
void fcRows(KernelIsa isa, const float* x, const float* w, const float* b,
            float* y, int64_t lo, int64_t hi, int64_t n, int64_t k,
            FcAct act);

/**
 * Rows a caller gathers into scratch per fcRows call when its X rows
 * are not one contiguous matrix (FusedFCOp's concat rows, the GRU
 * gate inputs): four avx2 register tiles, so one pass over W serves
 * 16 rows while the scratch stays 16 x K floats.
 */
constexpr int64_t kFcRowTile = 16;

/**
 * BatchMatMul flattened output rows [lo, hi) over batch*m rows of
 * C [B,M,N] = A [B,M,K] @ B [B,K,N]. Ascending-q mul-then-add per
 * output element on every tier: bit-identical to scalar.
 */
void batchMatMulRows(KernelIsa isa, const float* a, const float* b,
                     float* c, int64_t lo, int64_t hi, int64_t m,
                     int64_t k, int64_t n);

/** yrow[d] += src[d] — the SLS pooling add; bit-identical across tiers. */
void rowAdd(KernelIsa isa, float* yrow, const float* src, int64_t dim);

/**
 * yrow[d] += scale * src[d] — the SLWS pooling step; mul-then-add on
 * every tier (never FMA), bit-identical across tiers.
 */
void rowAddScaled(KernelIsa isa, float* yrow, const float* src,
                  float scale, int64_t dim);

/** yrow[d] *= scale — the SLMean normalization; bit-identical. */
void rowScale(KernelIsa isa, float* yrow, float scale, int64_t dim);

/** dst[d] = src[d] — the Gather row copy; trivially bit-identical. */
void rowCopy(KernelIsa isa, float* dst, const float* src, int64_t dim);

/** Elementwise arithmetic of binaryRow. */
enum class BinOp { kAdd, kSub, kMul };

/**
 * y[i] = a[i] op b[i] for i < n — the same-shape Add/Sub/Mul; one IEEE
 * operation per element, bit-identical across tiers. y may equal a or
 * b but must not partly overlap either.
 */
void binaryRow(KernelIsa isa, BinOp op, float* y, const float* a,
               const float* b, int64_t n);

/**
 * 1 / (1 + e^-v) with libm's expf: the one scalar sigmoid of src/ops
 * (UnaryOp, the FC activations and both GRU ops).
 */
float sigmoid(float v);

/**
 * tanh(v) as fdlibm's tanhf computes it (the code glibc runs), ported
 * so outputs do not depend on which libm is installed: the one tanh
 * of src/ops, on every tier.
 */
float tanh(float v);

/** Elementwise activation of unaryRow. */
enum class UnOp { kSigmoid, kTanh };

/**
 * y[i] = op(x[i]) for i < n, with kern::sigmoid / kern::tanh bits on
 * every tier (see the file comment for how avx2 keeps them). y may
 * equal x but must not partly overlap it.
 */
void unaryRow(KernelIsa isa, UnOp op, float* y, const float* x, int64_t n);

/**
 * One row of FusedGRUStep's gate math over j < hidden, from the gate
 * pre-activations gx = Wx x + bx and gh = Wh h + bh ([3*hidden], gate
 * order r, z, n):
 *
 *   r = sigmoid(gx_r + gh_r)     z = sigmoid(gx_z + gh_z) [* *att]
 *   n = tanh(gx_n + r * gh_n)    y = (n - z * n) + z * h
 *
 * each step one fp32 operation in this order, no FMA: bit-identical
 * across tiers. att is null for a plain GRU. yrow may equal hrow.
 */
void gruGateRow(KernelIsa isa, const float* gx, const float* gh,
                const float* hrow, const float* att, float* yrow,
                int64_t hidden);

}  // namespace kern
}  // namespace recstack

#endif  // RECSTACK_OPS_KERNELS_H_
