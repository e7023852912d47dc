#ifndef RECSTACK_OPS_GRU_H_
#define RECSTACK_OPS_GRU_H_

/**
 * @file
 * GRULayer: a full gated-recurrent-unit layer over a sequence, the
 * interest-evolution machinery of DIEN. Supports the plain GRU and
 * the attentional-update AUGRU variant DIEN stacks on top. Also home
 * of gruGateRows, the gate-matmul driver GRULayerOp shares with the
 * fused GRUStepOp (ops/fused.h).
 */

#include <algorithm>
#include <vector>

#include "ops/kernels.h"
#include "ops/operator.h"

namespace recstack {

/**
 * GRU layer over a [T, B, I] input sequence.
 *
 * Inputs:  x [T, B, I], h0 [B, H], wx [3H, I], wh [3H, H], bias [3H]
 *          and, when attentional, att [T, B] per-step attention scores.
 * Outputs: hseq [T, B, H], hlast [B, H]
 *
 * Gate math (per step t):
 *   r = sigmoid(Wx_r x + Wh_r h + b_r)
 *   z = sigmoid(Wx_z x + Wh_z h + b_z)      (AUGRU: z *= att[t])
 *   n = tanh   (Wx_n x + r * (Wh_n h) + b_n)
 *   h = (n - z * n) + z * h                 (kern::gruGateRow)
 */
class GRULayerOp : public Operator
{
  public:
    GRULayerOp(std::string name, std::string x, std::string h0,
               std::string wx, std::string wh, std::string bias,
               std::string hseq, std::string hlast,
               std::string att = "");

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;

    bool attentional() const { return attentional_; }

  private:
    bool attentional_;
};

OperatorPtr makeGRULayer(std::string name, std::string x, std::string h0,
                         std::string wx, std::string wh, std::string bias,
                         std::string hseq, std::string hlast,
                         std::string att = "");

/** Operands of a GRU cell's gate matmuls; gate rows ordered r, z, n. */
struct GruGateWeights {
    const float* wx = nullptr;  ///< [3H, input]
    const float* bx = nullptr;  ///< [3H]
    const float* wh = nullptr;  ///< [3H, hidden]
    const float* bh = nullptr;  ///< [3H]
    int64_t input = 0;
    int64_t hidden = 0;
};

/**
 * Gate pre-activations of batch rows [lo, hi) of one GRU step,
 * gx_b = Wx x_b + bx and gh_b = Wh h_b + bh (each [3H]), handed to
 * gate(b, gx_b, gh_b) row by row.
 *
 * Rows go through in tiles of kern::kFcRowTile with one fcRows call
 * per matmul per tile, so every pre-activation is the canonical
 * kern::dotBias value on the active tier. Row b's x starts at
 * x + b * x_stride (strided rows are gathered into scratch first, a
 * pure copy) and its h at h + b * hidden. A tile's matmuls finish
 * before gate() runs on any of its rows, so gate() may overwrite its
 * own row of h.
 */
template <typename GateFn>
void
gruGateRows(KernelIsa isa, const GruGateWeights& wt, const float* x,
            int64_t x_stride, const float* h, int64_t lo, int64_t hi,
            GateFn&& gate)
{
    const int64_t g3 = 3 * wt.hidden;
    const int64_t tile = std::min(kern::kFcRowTile, hi - lo);
    const bool strided = x_stride != wt.input;
    std::vector<float> xbuf(
        strided ? static_cast<size_t>(tile * wt.input) : 0);
    std::vector<float> gx(static_cast<size_t>(tile * g3));
    std::vector<float> gh(static_cast<size_t>(tile * g3));
    for (int64_t b0 = lo; b0 < hi; b0 += tile) {
        const int64_t rows = std::min(tile, hi - b0);
        const float* xt = x + b0 * x_stride;
        if (strided) {
            for (int64_t r = 0; r < rows; ++r) {
                kern::rowCopy(isa, xbuf.data() + r * wt.input,
                              xt + r * x_stride, wt.input);
            }
            xt = xbuf.data();
        }
        kern::fcRows(isa, xt, wt.wx, wt.bx, gx.data(), 0, rows, g3,
                     wt.input, kern::FcAct::kNone);
        kern::fcRows(isa, h + b0 * wt.hidden, wt.wh, wt.bh, gh.data(), 0,
                     rows, g3, wt.hidden, kern::FcAct::kNone);
        for (int64_t r = 0; r < rows; ++r) {
            gate(b0 + r, gx.data() + r * g3, gh.data() + r * g3);
        }
    }
}

}  // namespace recstack

#endif  // RECSTACK_OPS_GRU_H_
