#ifndef RECSTACK_OPS_FUSED_H_
#define RECSTACK_OPS_FUSED_H_

/**
 * @file
 * Fused operators emitted by the CompiledNet rewrite passes
 * (graph/compiled_net.h). These never appear in builder-emitted nets;
 * they replace windows of framework-granularity operators at compile
 * time.
 *
 * Every fused kernel replicates the exact floating-point operation
 * order of the operator chain it replaces, element by element, so a
 * compiled run is bit-identical to the interpreted run at any intra-op
 * width (the planning-equivalence contract of docs/memory_planning.md).
 */

#include "ops/operator.h"

namespace recstack {

/** Activation applied by a fused FC ("none" = plain FC). */
enum class FusedAct { kNone, kRelu, kSigmoid, kTanh };

/**
 * Fused concat + fully-connected + activation:
 *
 *   Y = act([X0 ; X1 ; ... ; Xn-1] * W^T + b)
 *
 * Inputs:  X0..Xn-1 [M, Ki], W [N, sum(Ki)], b [N]
 * Outputs: Y [M, N]
 *
 * With one X block and act == kNone this degenerates to FC. The
 * blocks are walked in declaration order inside the accumulation
 * loop, which reproduces FC-over-materialized-concat bit-exactly,
 * and the activation is applied to the float accumulator exactly as
 * the standalone UnaryOp would apply it to the stored FC output.
 */
class FusedFCOp : public Operator
{
  public:
    FusedFCOp(std::string name, std::vector<std::string> xs, std::string w,
              std::string b, std::string y, FusedAct act);

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;

    FusedAct act() const { return act_; }
    /** Number of concatenated X blocks (inputs are xs..., w, b). */
    size_t numBlocks() const { return inputs().size() - 2; }

  private:
    FusedAct act_;
};

/**
 * One fused (AU)GRU timestep over a batch-major sequence — the ~22
 * operator window Caffe2's RecurrentNetwork unrolls per step
 * (Slice/FC/FC/Reshape x2/Slice x6/gate arithmetic), collapsed into
 * a single kernel:
 *
 *   x_t = Seq[:, t, :]
 *   gx  = x_t * Wx^T + bx          gh = h * Wh^T + bh
 *   r   = sigmoid(gxr + ghr)       z = sigmoid(gxz + ghz)
 *   z  *= Att[:, t, 0]             (attentional update, if present)
 *   n   = tanh(gxn + r * ghn)
 *   h'  = (n - z * n) + z * h
 *
 * Inputs:  Seq [B, T, I], H [B, H], Wx [3H, I], bx [3H],
 *          Wh [3H, H], bh [3H], optional Att [B, T, 1]
 * Outputs: H' [B, H]
 *
 * Gate order in Wx/Wh rows is r, z, n (the builder's reshape-to-
 * [B, 3, H] convention). Batch rows are independent, so the kernel
 * partitions over B with per-chunk gate scratch and stays
 * bit-identical at any thread width.
 */
class GRUStepOp : public Operator
{
  public:
    GRUStepOp(std::string name, std::string seq, std::string h,
              std::string wx, std::string bx, std::string wh,
              std::string bh, std::string att, std::string h_new,
              int64_t step);

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;

    int64_t step() const { return step_; }
    bool attentional() const { return inputs().size() == 7; }

  private:
    int64_t step_;
};

}  // namespace recstack

#endif  // RECSTACK_OPS_FUSED_H_
