#include "ops/gru.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "ops/kernels.h"
#include "ops/op_costs.h"

namespace recstack {

GRULayerOp::GRULayerOp(std::string name, std::string x, std::string h0,
                       std::string wx, std::string wh, std::string bias,
                       std::string hseq, std::string hlast, std::string att)
    : Operator(att.empty() ? "GRULayer" : "AUGRULayer", std::move(name),
               att.empty()
                   ? std::vector<std::string>{std::move(x), std::move(h0),
                         std::move(wx), std::move(wh), std::move(bias)}
                   : std::vector<std::string>{std::move(x), std::move(h0),
                         std::move(wx), std::move(wh), std::move(bias),
                         std::move(att)},
               {std::move(hseq), std::move(hlast)}),
      attentional_(!inputs().empty() && inputs().size() == 6)
{
}

void
GRULayerOp::inferShapes(Workspace& ws)
{
    const Tensor& x = in(ws, 0);
    const Tensor& h0 = in(ws, 1);
    const Tensor& wx = in(ws, 2);
    const Tensor& wh = in(ws, 3);
    RECSTACK_CHECK(x.rank() == 3, "GRU '" << name()
                   << "': x must be [T, B, I]");
    const int64_t hidden = h0.dim(1);
    RECSTACK_CHECK(wx.dim(0) == 3 * hidden && wx.dim(1) == x.dim(2),
                   "GRU '" << name() << "': wx shape mismatch");
    RECSTACK_CHECK(wh.dim(0) == 3 * hidden && wh.dim(1) == hidden,
                   "GRU '" << name() << "': wh shape mismatch");
    if (attentional_) {
        const Tensor& att = in(ws, 5);
        RECSTACK_CHECK(att.rank() == 2 && att.dim(0) == x.dim(0) &&
                       att.dim(1) == x.dim(1),
                       "GRU '" << name() << "': att must be [T, B]");
    }
    ws.ensure(outputs()[0], {x.dim(0), x.dim(1), hidden});
    ws.ensure(outputs()[1], {x.dim(1), hidden});
}

void
GRULayerOp::run(Workspace& ws)
{
    const Tensor& xt = in(ws, 0);
    const Tensor& h0t = in(ws, 1);
    const Tensor& wxt = in(ws, 2);
    const Tensor& wht = in(ws, 3);
    const Tensor& bt = in(ws, 4);
    Tensor& hseq_t = out(ws, 0);
    Tensor& hlast_t = out(ws, 1);

    const int64_t steps = xt.dim(0);
    const int64_t batch = xt.dim(1);
    const int64_t input = xt.dim(2);
    const int64_t hidden = h0t.dim(1);

    const float* x = xt.data<float>();
    const float* wx = wxt.data<float>();
    const float* wh = wht.data<float>();
    const float* bias = bt.data<float>();
    const float* att =
        attentional_ ? in(ws, 5).data<float>() : nullptr;
    float* hseq = hseq_t.data<float>();
    float* hlast = hlast_t.data<float>();

    // h holds the running hidden state, initialized from h0.
    std::vector<float> h(h0t.data<float>(),
                         h0t.data<float>() + batch * hidden);

    // Timesteps are inherently serial (h(t) feeds h(t+1)); within a
    // step the batch partitions across the pool. Each sample b only
    // reads and writes its own h/hseq rows, and each chunk carries
    // private gate scratch, so any thread count is bit-identical. The
    // gate matmuls run through gruGateRows on the canonical dotBias
    // contract (ops/kernels.h); gh takes an all-zero bias, and 0.0f
    // plus the sum is exactly dotBias(0.0f, ...). The gate math is
    // gruGateRow's, updating h in place. So the layer matches a
    // step-unrolled graph bit-for-bit on every tier.
    const KernelIsa isa = activeKernelIsa();
    const std::vector<float> zero_bias(static_cast<size_t>(3 * hidden),
                                       0.0f);
    const GruGateWeights gates{wx, bias, wh, zero_bias.data(), input,
                               hidden};
    const int64_t step_grain = grainForCost(
        static_cast<uint64_t>(3 * hidden * (input + hidden)));
    float* hbase = h.data();
    for (int64_t t = 0; t < steps; ++t) {
        parallelFor(0, batch, step_grain, [&, t](int64_t lo, int64_t hi) {
            gruGateRows(isa, gates, x + t * batch * input, input, hbase,
                        lo, hi,
                        [&](int64_t b, const float* gx, const float* gh) {
                float* hrow = hbase + b * hidden;
                kern::gruGateRow(isa, gx, gh, hrow,
                                 att ? att + t * batch + b : nullptr, hrow,
                                 hidden);
                std::copy(hrow, hrow + hidden,
                          hseq + (t * batch + b) * hidden);
            });
        });
    }
    for (int64_t i = 0; i < batch * hidden; ++i) {
        hlast[i] = h[static_cast<size_t>(i)];
    }
}

KernelProfile
GRULayerOp::profile(const Workspace& ws) const
{
    const Tensor& x = in(ws, 0);
    const Tensor& wx = in(ws, 2);
    const Tensor& wh = in(ws, 3);
    const uint64_t steps = static_cast<uint64_t>(x.dim(0));
    const uint64_t batch = static_cast<uint64_t>(x.dim(1));
    const uint64_t input = static_cast<uint64_t>(x.dim(2));
    const uint64_t hidden = static_cast<uint64_t>(wh.dim(1));

    KernelProfile kp = baseProfile();
    kp.fmaFlops = 2 * steps * batch * 3 * hidden * (input + hidden);
    kp.vecElemOps = steps * batch * hidden * 24 +  // gate nonlinearities
                    kp.fmaFlops / 4;               // GEMM shuffle overhead
    kp.reloadLoadElems = kp.fmaFlops / 4;
    kp.simdScalableOps = steps * batch * hidden;
    kp.scalarOps = steps * batch * 16;

    addSeqStream(kp, inputs()[0], x, false);
    // Weights are re-streamed every timestep; the small matrices live
    // in cache after the first step, which the cache model discovers.
    MemStream wstream;
    wstream.region = inputs()[2];
    wstream.pattern = AccessPattern::kSequential;
    wstream.chunkBytes = 64;
    wstream.footprintBytes = wx.byteSize() + wh.byteSize();
    wstream.accesses = steps * ((wstream.footprintBytes + 63) / 64);
    wstream.mlp = opcost::kMlpSerial;
    kp.streams.push_back(wstream);
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);

    BranchStream loops;
    loops.count = std::max<uint64_t>(1, steps * batch * 3 * hidden *
                                     (input + hidden) / 256) + steps;
    loops.takenProbability = 0.96;
    loops.randomness = 0.03;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);

    kp.serialSteps = steps;
    kp.codeFootprintBytes = opcost::kGruCodeBytes;
    kp.codeRegion = attentional_ ? "kernel:AUGRU" : "kernel:GRU";
    kp.codeIterations = std::max<uint64_t>(1, steps * batch * hidden);
    return kp;
}

OperatorPtr
makeGRULayer(std::string name, std::string x, std::string h0,
             std::string wx, std::string wh, std::string bias,
             std::string hseq, std::string hlast, std::string att)
{
    return std::make_unique<GRULayerOp>(std::move(name), std::move(x),
                                        std::move(h0), std::move(wx),
                                        std::move(wh), std::move(bias),
                                        std::move(hseq), std::move(hlast),
                                        std::move(att));
}

}  // namespace recstack
