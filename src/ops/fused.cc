#include "ops/fused.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "ops/gru.h"
#include "ops/kernels.h"
#include "ops/op_costs.h"

namespace recstack {
namespace {

kern::FcAct
toFcAct(FusedAct act)
{
    switch (act) {
      case FusedAct::kNone: return kern::FcAct::kNone;
      case FusedAct::kRelu: return kern::FcAct::kRelu;
      case FusedAct::kSigmoid: return kern::FcAct::kSigmoid;
      case FusedAct::kTanh: return kern::FcAct::kTanh;
    }
    return kern::FcAct::kNone;
}

std::vector<std::string>
fcInputs(std::vector<std::string> xs, std::string w, std::string b)
{
    xs.push_back(std::move(w));
    xs.push_back(std::move(b));
    return xs;
}

std::vector<std::string>
gruInputs(std::string seq, std::string h, std::string wx, std::string bx,
          std::string wh, std::string bh, std::string att)
{
    std::vector<std::string> ins = {std::move(seq), std::move(h),
                                    std::move(wx), std::move(bx),
                                    std::move(wh), std::move(bh)};
    if (!att.empty()) {
        ins.push_back(std::move(att));
    }
    return ins;
}

/// Same per-element cost the standalone activations charge.
uint64_t
actElemCost(FusedAct act)
{
    switch (act) {
      case FusedAct::kNone: return 0;
      case FusedAct::kRelu: return 1;
      case FusedAct::kSigmoid: return 8;
      case FusedAct::kTanh: return 8;
    }
    return 0;
}

}  // namespace

FusedFCOp::FusedFCOp(std::string name, std::vector<std::string> xs,
                     std::string w, std::string b, std::string y,
                     FusedAct act)
    : Operator("FusedFC", std::move(name),
               fcInputs(std::move(xs), std::move(w), std::move(b)),
               {std::move(y)}),
      act_(act)
{
    RECSTACK_CHECK(numBlocks() >= 1, "FusedFC needs at least one X block");
}

void
FusedFCOp::inferShapes(Workspace& ws)
{
    const size_t nx = numBlocks();
    const Tensor& x0 = in(ws, 0);
    RECSTACK_CHECK(x0.rank() == 2, "FusedFC '" << name()
                   << "': X blocks must be 2-D, got " << x0.describe());
    const int64_t m = x0.dim(0);
    int64_t k = 0;
    for (size_t s = 0; s < nx; ++s) {
        const Tensor& x = in(ws, s);
        RECSTACK_CHECK(x.rank() == 2 && x.dim(0) == m,
                       "FusedFC '" << name() << "': block " << s
                                   << " batch mismatch");
        k += x.dim(1);
    }
    const Tensor& w = in(ws, nx);
    const Tensor& b = in(ws, nx + 1);
    RECSTACK_CHECK(w.rank() == 2 && w.dim(1) == k,
                   "FusedFC '" << name() << "': K mismatch, blocks sum "
                               << k << " vs W " << w.describe());
    RECSTACK_CHECK(b.numel() == w.dim(0),
                   "FusedFC '" << name() << "': bias length mismatch");
    ws.ensure(outputs()[0], {m, w.dim(0)});
}

void
FusedFCOp::run(Workspace& ws)
{
    const size_t nx = numBlocks();
    const Tensor& wt = in(ws, nx);
    const Tensor& bt = in(ws, nx + 1);
    Tensor& yt = out(ws, 0);

    const int64_t m = yt.dim(0);
    const int64_t n = wt.dim(0);
    const int64_t k = wt.dim(1);
    std::vector<const float*> xs(nx);
    std::vector<int64_t> ks(nx);
    for (size_t s = 0; s < nx; ++s) {
        const Tensor& x = in(ws, s);
        xs[s] = x.data<float>();
        ks[s] = x.dim(1);
    }
    const float* w = wt.data<float>();
    const float* b = bt.data<float>();
    float* y = yt.data<float>();
    const FusedAct act = act_;

    // Row-blocked exactly like FCOp, running the same fcRows kernel so
    // every output element matches FC over a materialized concat row
    // bit-for-bit on every ISA tier: with one X block the kernel reads
    // the block directly; with several, each chunk gathers up to
    // kern::kFcRowTile concat rows into scratch (a pure copy — the
    // multiply-add sequence is untouched) and runs the identical
    // kernel once per row tile. The fused activation maps the float
    // accumulator exactly as the standalone elementwise op would.
    const KernelIsa isa = activeKernelIsa();
    const kern::FcAct fc_act = toFcAct(act);
    parallelFor(0, m, grainForCost(static_cast<uint64_t>(n * k)),
                [&, fc_act](int64_t lo, int64_t hi) {
        if (nx == 1) {
            kern::fcRows(isa, xs[0], w, b, y, lo, hi, n, k, fc_act);
            return;
        }
        const int64_t tile = std::min(kern::kFcRowTile, hi - lo);
        std::vector<float> xcat(static_cast<size_t>(tile * k));
        for (int64_t i0 = lo; i0 < hi; i0 += tile) {
            const int64_t rows = std::min(tile, hi - i0);
            for (int64_t r = 0; r < rows; ++r) {
                float* dst = xcat.data() + r * k;
                for (size_t s = 0; s < nx; ++s) {
                    kern::rowCopy(isa, dst, xs[s] + (i0 + r) * ks[s],
                                  ks[s]);
                    dst += ks[s];
                }
            }
            kern::fcRows(isa, xcat.data(), w, b, y + i0 * n, 0, rows, n,
                         k, fc_act);
        }
    });
}

KernelProfile
FusedFCOp::profile(const Workspace& ws) const
{
    const size_t nx = numBlocks();
    const Tensor& w = in(ws, nx);
    const Tensor& y = outConst(ws, 0);
    const uint64_t m = static_cast<uint64_t>(y.dim(0));
    const uint64_t n = static_cast<uint64_t>(w.dim(0));
    const uint64_t k = static_cast<uint64_t>(w.dim(1));

    // The GEMM core costs match FCOp::profile over the summed K; the
    // fusion saves the concat copy and the activation's extra pass
    // over memory, but still pays the activation math per element.
    KernelProfile kp = baseProfile();
    kp.fmaFlops = 2 * m * n * k;
    kp.gemmWidth = n;
    kp.reloadLoadElems = m * n * k / 2;
    kp.vecElemOps = m * n * k / 3 + m * n * actElemCost(act_);
    kp.simdScalableOps = m * n / 2;
    kp.scalarOps = m * 4 * nx;
    for (size_t s = 0; s < nx; ++s) {
        addSeqStream(kp, inputs()[s], in(ws, s), false);
    }
    {
        MemStream ws_stream;
        ws_stream.region = inputs()[nx];
        ws_stream.pattern = AccessPattern::kSequential;
        ws_stream.chunkBytes = 64;
        const uint64_t panel_reads = std::max<uint64_t>(1, (m + 63) / 64);
        ws_stream.footprintBytes = w.byteSize();
        ws_stream.accesses = panel_reads * ((w.byteSize() + 63) / 64);
        ws_stream.mlp = opcost::kMlpSequential;
        kp.streams.push_back(ws_stream);
    }
    addSeqStream(kp, outputs()[0], y, true);

    BranchStream loops;
    loops.count = std::max<uint64_t>(1, kp.fmaFlops /
                                     opcost::kFlopsPerGemmBranch);
    loops.takenProbability = 0.97;
    loops.randomness = 0.02;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);

    kp.codeFootprintBytes = opcost::kGemmCodeBytes;
    kp.codeRegion = "kernel:FusedFC";
    kp.codeIterations = std::max<uint64_t>(1, m * n * k / 512);
    return kp;
}

GRUStepOp::GRUStepOp(std::string name, std::string seq, std::string h,
                     std::string wx, std::string bx, std::string wh,
                     std::string bh, std::string att, std::string h_new,
                     int64_t step)
    : Operator("FusedGRUStep", std::move(name),
               gruInputs(std::move(seq), std::move(h), std::move(wx),
                         std::move(bx), std::move(wh), std::move(bh),
                         std::move(att)),
               {std::move(h_new)}),
      step_(step)
{
    RECSTACK_CHECK(step_ >= 0, "GRUStep needs a non-negative step index");
}

void
GRUStepOp::inferShapes(Workspace& ws)
{
    const Tensor& seq = in(ws, 0);
    const Tensor& h = in(ws, 1);
    const Tensor& wx = in(ws, 2);
    const Tensor& bx = in(ws, 3);
    const Tensor& wh = in(ws, 4);
    const Tensor& bh = in(ws, 5);
    RECSTACK_CHECK(seq.rank() == 3, "GRUStep '" << name()
                   << "': sequence must be 3-D, got " << seq.describe());
    RECSTACK_CHECK(step_ < seq.dim(1),
                   "GRUStep '" << name() << "': step " << step_
                               << " out of range for " << seq.describe());
    const int64_t batch = seq.dim(0);
    const int64_t in_dim = seq.dim(2);
    RECSTACK_CHECK(h.rank() == 2 && h.dim(0) == batch,
                   "GRUStep '" << name() << "': hidden-state batch "
                               << "mismatch");
    const int64_t hidden = h.dim(1);
    RECSTACK_CHECK(wx.rank() == 2 && wx.dim(0) == 3 * hidden &&
                       wx.dim(1) == in_dim,
                   "GRUStep '" << name() << "': Wx shape mismatch");
    RECSTACK_CHECK(wh.rank() == 2 && wh.dim(0) == 3 * hidden &&
                       wh.dim(1) == hidden,
                   "GRUStep '" << name() << "': Wh shape mismatch");
    RECSTACK_CHECK(bx.numel() == 3 * hidden && bh.numel() == 3 * hidden,
                   "GRUStep '" << name() << "': bias length mismatch");
    if (attentional()) {
        const Tensor& att = in(ws, 6);
        RECSTACK_CHECK(att.rank() == 3 && att.dim(0) == batch &&
                           att.dim(2) == 1 && att.dim(1) == seq.dim(1),
                       "GRUStep '" << name() << "': attention shape "
                                   << "mismatch, got " << att.describe());
    }
    ws.ensure(outputs()[0], {batch, hidden});
}

void
GRUStepOp::run(Workspace& ws)
{
    const Tensor& seqt = in(ws, 0);
    const Tensor& ht = in(ws, 1);
    const Tensor& wxt = in(ws, 2);
    const Tensor& bxt = in(ws, 3);
    const Tensor& wht = in(ws, 4);
    const Tensor& bht = in(ws, 5);
    Tensor& yt = out(ws, 0);

    const int64_t batch = seqt.dim(0);
    const int64_t steps = seqt.dim(1);
    const int64_t in_dim = seqt.dim(2);
    const int64_t hidden = ht.dim(1);
    const int64_t t = step_;
    const float* seq = seqt.data<float>();
    const float* h = ht.data<float>();
    const float* wx = wxt.data<float>();
    const float* bx = bxt.data<float>();
    const float* wh = wht.data<float>();
    const float* bh = bht.data<float>();
    const float* att = attentional() ? in(ws, 6).data<float>() : nullptr;
    float* y = yt.data<float>();

    // Batch rows are independent. gruGateRows runs the gate matmuls
    // per row tile through fcRows, whose every element is the same
    // canonical dotBias the interpreted window's FCOp computes, so the
    // result is bit-identical to the unfused chain on every ISA tier.
    // Every arithmetic step of the gate lambda mirrors one elementwise
    // op of the unrolled window, in the same order and in fp32.
    const KernelIsa isa = activeKernelIsa();
    const GruGateWeights gates{wx, bx, wh, bh, in_dim, hidden};
    const uint64_t row_cost =
        static_cast<uint64_t>(6 * hidden * (in_dim + hidden));
    parallelFor(0, batch, grainForCost(row_cost),
                [=](int64_t lo, int64_t hi) {
        gruGateRows(isa, gates, seq + t * in_dim, steps * in_dim, h, lo,
                    hi, [&](int64_t b, const float* gx, const float* gh) {
            const float a = att != nullptr ? att[b * steps + t] : 1.0f;
            const float* hrow = h + b * hidden;
            float* yrow = y + b * hidden;
            for (int64_t j = 0; j < hidden; ++j) {
                const float r =
                    1.0f / (1.0f + std::exp(-(gx[j] + gh[j])));
                float z = 1.0f / (1.0f + std::exp(-(
                    gx[hidden + j] + gh[hidden + j])));
                if (att != nullptr) {
                    z = z * a;
                }
                const float n = std::tanh(gx[2 * hidden + j] +
                                          r * gh[2 * hidden + j]);
                const float zn = z * n;
                const float zh = z * hrow[j];
                yrow[j] = (n - zn) + zh;
            }
        });
    });
}

KernelProfile
GRUStepOp::profile(const Workspace& ws) const
{
    const Tensor& seq = in(ws, 0);
    const Tensor& h = in(ws, 1);
    const Tensor& wx = in(ws, 2);
    const Tensor& wh = in(ws, 4);
    const uint64_t batch = static_cast<uint64_t>(seq.dim(0));
    const uint64_t in_dim = static_cast<uint64_t>(seq.dim(2));
    const uint64_t hidden = static_cast<uint64_t>(h.dim(1));

    // Two small GEMMs plus gate math per row; the fused kernel keeps
    // the gate vectors in scratch so only the step's x row, h row and
    // the weight matrices move through the memory system.
    KernelProfile kp = baseProfile();
    kp.fmaFlops = 2 * batch * 3 * hidden * (in_dim + hidden);
    kp.gemmWidth = 3 * hidden;
    kp.reloadLoadElems = kp.fmaFlops / 4;
    kp.vecElemOps = kp.fmaFlops / 6 + batch * hidden * 22;
    kp.simdScalableOps = batch * 3 * hidden;
    kp.scalarOps = batch * 8;
    {
        MemStream r;
        r.region = inputs()[0];
        r.pattern = AccessPattern::kStrided;
        r.chunkBytes = in_dim * 4;
        r.accesses = batch;
        r.footprintBytes = seq.byteSize();
        r.strideBytes = static_cast<uint64_t>(seq.dim(1)) * in_dim * 4;
        r.mlp = opcost::kMlpSequential;
        kp.streams.push_back(r);
    }
    addSeqStream(kp, inputs()[1], h, false);
    addSeqStream(kp, inputs()[2], wx, false);
    addSeqStream(kp, inputs()[4], wh, false);
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);

    BranchStream loops;
    loops.count = std::max<uint64_t>(1, kp.fmaFlops /
                                     opcost::kFlopsPerGemmBranch);
    loops.takenProbability = 0.97;
    loops.randomness = 0.02;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);

    kp.codeFootprintBytes = opcost::kGemmCodeBytes;
    kp.codeRegion = "kernel:FusedGRUStep";
    kp.codeIterations = std::max<uint64_t>(1, kp.fmaFlops / 512);
    return kp;
}

}  // namespace recstack
