#include "ops/elementwise.h"

#include "common/thread_pool.h"
#include "ops/kernels.h"
#include "ops/op_costs.h"

namespace recstack {
namespace {

const char*
unaryName(UnaryFn fn)
{
    switch (fn) {
      case UnaryFn::kRelu: return "Relu";
      case UnaryFn::kSigmoid: return "Sigmoid";
      case UnaryFn::kTanh: return "Tanh";
    }
    return "?";
}

const char*
binaryName(BinaryFn fn)
{
    switch (fn) {
      case BinaryFn::kAdd: return "Add";
      case BinaryFn::kSub: return "Sub";
      case BinaryFn::kMul: return "Mul";
    }
    return "?";
}

/// Transcendental activations cost several vector ops per element.
uint64_t
unaryElemCost(UnaryFn fn)
{
    switch (fn) {
      case UnaryFn::kRelu: return 1;
      case UnaryFn::kSigmoid: return 8;
      case UnaryFn::kTanh: return 8;
    }
    return 1;
}

}  // namespace

UnaryOp::UnaryOp(UnaryFn fn, std::string name, std::string x, std::string y)
    : Operator(unaryName(fn), std::move(name), {std::move(x)},
               {std::move(y)}),
      fn_(fn)
{
}

void
UnaryOp::inferShapes(Workspace& ws)
{
    const Tensor& x = in(ws, 0);
    RECSTACK_CHECK(x.dtype() == DType::kFloat32,
                   type() << " '" << name() << "' needs float input");
    ws.ensure(outputs()[0], x.shape());
}

void
UnaryOp::run(Workspace& ws)
{
    const Tensor& xt = in(ws, 0);
    Tensor& yt = out(ws, 0);
    const float* x = xt.data<float>();
    float* y = yt.data<float>();
    const int64_t n = xt.numel();
    // Pure elementwise map: chunks touch disjoint [lo, hi) slices.
    const UnaryFn fn = fn_;
    const KernelIsa isa = activeKernelIsa();
    parallelFor(0, n, grainForCost(unaryElemCost(fn)),
                [=](int64_t lo, int64_t hi) {
        switch (fn) {
          case UnaryFn::kRelu:
            for (int64_t i = lo; i < hi; ++i) {
                y[i] = x[i] > 0.0f ? x[i] : 0.0f;
            }
            break;
          case UnaryFn::kSigmoid:
            kern::unaryRow(isa, kern::UnOp::kSigmoid, y + lo, x + lo,
                           hi - lo);
            break;
          case UnaryFn::kTanh:
            kern::unaryRow(isa, kern::UnOp::kTanh, y + lo, x + lo, hi - lo);
            break;
        }
    });
}

KernelProfile
UnaryOp::profile(const Workspace& ws) const
{
    const Tensor& x = in(ws, 0);
    KernelProfile kp = baseProfile();
    const uint64_t n = static_cast<uint64_t>(x.numel());
    kp.vecElemOps = n * unaryElemCost(fn_);
    kp.scalarOps = 32;
    addSeqStream(kp, inputs()[0], x, false);
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);
    BranchStream loops;
    loops.count = std::max<uint64_t>(1, n / 64);
    loops.takenProbability = 0.97;
    loops.randomness = 0.02;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);
    kp.codeFootprintBytes = opcost::kEltwiseCodeBytes;
    kp.codeRegion = std::string("kernel:") + type();
    kp.codeIterations = std::max<uint64_t>(1, n / 16);
    return kp;
}

BinaryOp::BinaryOp(BinaryFn fn, std::string name, std::string a,
                   std::string b, std::string y)
    : Operator(binaryName(fn), std::move(name),
               {std::move(a), std::move(b)}, {std::move(y)}),
      fn_(fn)
{
}

void
BinaryOp::inferShapes(Workspace& ws)
{
    const Tensor& a = in(ws, 0);
    const Tensor& b = in(ws, 1);
    const bool broadcast = a.rank() == 2 && b.rank() == 2 &&
                           a.dim(0) == b.dim(0) && b.dim(1) == 1;
    RECSTACK_CHECK(a.shape() == b.shape() || broadcast,
                   type() << " '" << name() << "': shape mismatch "
                          << a.describe() << " vs " << b.describe());
    ws.ensure(outputs()[0], a.shape());
}

void
BinaryOp::run(Workspace& ws)
{
    const Tensor& at = in(ws, 0);
    const Tensor& bt = in(ws, 1);
    Tensor& yt = out(ws, 0);
    const float* a = at.data<float>();
    const float* b = bt.data<float>();
    float* y = yt.data<float>();
    const int64_t n = at.numel();
    const bool broadcast = at.shape() != bt.shape();
    const BinaryFn fn = fn_;
    if (!broadcast) {
        const KernelIsa isa = activeKernelIsa();
        const kern::BinOp op = fn == BinaryFn::kAdd   ? kern::BinOp::kAdd
                               : fn == BinaryFn::kSub ? kern::BinOp::kSub
                                                      : kern::BinOp::kMul;
        parallelFor(0, n, grainForCost(2), [=](int64_t lo, int64_t hi) {
            kern::binaryRow(isa, op, y + lo, a + lo, b + lo, hi - lo);
        });
        return;
    }
    const int64_t cols = at.dim(1);
    parallelFor(0, n, grainForCost(2), [=](int64_t lo, int64_t hi) {
        switch (fn) {
          case BinaryFn::kAdd:
            for (int64_t i = lo; i < hi; ++i) y[i] = a[i] + b[i / cols];
            break;
          case BinaryFn::kSub:
            for (int64_t i = lo; i < hi; ++i) y[i] = a[i] - b[i / cols];
            break;
          case BinaryFn::kMul:
            for (int64_t i = lo; i < hi; ++i) y[i] = a[i] * b[i / cols];
            break;
        }
    });
}

KernelProfile
BinaryOp::profile(const Workspace& ws) const
{
    const Tensor& a = in(ws, 0);
    KernelProfile kp = baseProfile();
    const uint64_t n = static_cast<uint64_t>(a.numel());
    kp.vecElemOps = n;
    kp.scalarOps = 32;
    addSeqStream(kp, inputs()[0], a, false);
    addSeqStream(kp, inputs()[1], in(ws, 1), false);
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);
    BranchStream loops;
    loops.count = std::max<uint64_t>(1, n / 64);
    loops.takenProbability = 0.97;
    loops.randomness = 0.02;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);
    kp.codeFootprintBytes = opcost::kEltwiseCodeBytes;
    kp.codeRegion = std::string("kernel:") + type();
    kp.codeIterations = std::max<uint64_t>(1, n / 16);
    return kp;
}

SumOp::SumOp(std::string name, std::vector<std::string> xs, std::string y)
    : Operator("Sum", std::move(name), std::move(xs), {std::move(y)})
{
    RECSTACK_CHECK(!inputs().empty(), "Sum needs at least one input");
}

void
SumOp::inferShapes(Workspace& ws)
{
    const Tensor& first = in(ws, 0);
    for (size_t i = 1; i < inputs().size(); ++i) {
        RECSTACK_CHECK(in(ws, i).shape() == first.shape(),
                       "Sum '" << name() << "': input " << i
                               << " shape mismatch");
    }
    ws.ensure(outputs()[0], first.shape());
}

void
SumOp::run(Workspace& ws)
{
    Tensor& yt = out(ws, 0);
    float* y = yt.data<float>();
    const int64_t n = yt.numel();
    std::vector<const float*> srcs;
    srcs.reserve(inputs().size());
    for (size_t s = 0; s < inputs().size(); ++s) {
        srcs.push_back(in(ws, s).data<float>());
    }
    // Disjoint element slices; the per-element input order (and thus
    // float rounding) matches the serial accumulation exactly.
    parallelFor(0, n, grainForCost(srcs.size()),
                [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            y[i] = srcs[0][i];
        }
        for (size_t s = 1; s < srcs.size(); ++s) {
            const float* x = srcs[s];
            for (int64_t i = lo; i < hi; ++i) {
                y[i] += x[i];
            }
        }
    });
}

KernelProfile
SumOp::profile(const Workspace& ws) const
{
    KernelProfile kp = baseProfile();
    const uint64_t n = static_cast<uint64_t>(outConst(ws, 0).numel());
    kp.vecElemOps = n * inputs().size();
    kp.scalarOps = 16 * inputs().size();
    for (size_t i = 0; i < inputs().size(); ++i) {
        addSeqStream(kp, inputs()[i], in(ws, i), false);
    }
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);
    BranchStream loops;
    loops.count = std::max<uint64_t>(1, n * inputs().size() / 64);
    loops.takenProbability = 0.97;
    loops.randomness = 0.02;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);
    kp.codeFootprintBytes = opcost::kEltwiseCodeBytes;
    kp.codeRegion = "kernel:Sum";
    kp.codeIterations = std::max<uint64_t>(1, n / 16);
    return kp;
}

OperatorPtr
makeRelu(std::string name, std::string x, std::string y)
{
    return std::make_unique<UnaryOp>(UnaryFn::kRelu, std::move(name),
                                     std::move(x), std::move(y));
}

OperatorPtr
makeSigmoid(std::string name, std::string x, std::string y)
{
    return std::make_unique<UnaryOp>(UnaryFn::kSigmoid, std::move(name),
                                     std::move(x), std::move(y));
}

OperatorPtr
makeTanh(std::string name, std::string x, std::string y)
{
    return std::make_unique<UnaryOp>(UnaryFn::kTanh, std::move(name),
                                     std::move(x), std::move(y));
}

OperatorPtr
makeAdd(std::string name, std::string a, std::string b, std::string y)
{
    return std::make_unique<BinaryOp>(BinaryFn::kAdd, std::move(name),
                                      std::move(a), std::move(b),
                                      std::move(y));
}

OperatorPtr
makeSub(std::string name, std::string a, std::string b, std::string y)
{
    return std::make_unique<BinaryOp>(BinaryFn::kSub, std::move(name),
                                      std::move(a), std::move(b),
                                      std::move(y));
}

OperatorPtr
makeMul(std::string name, std::string a, std::string b, std::string y)
{
    return std::make_unique<BinaryOp>(BinaryFn::kMul, std::move(name),
                                      std::move(a), std::move(b),
                                      std::move(y));
}

OperatorPtr
makeSum(std::string name, std::vector<std::string> xs, std::string y)
{
    return std::make_unique<SumOp>(std::move(name), std::move(xs),
                                   std::move(y));
}

}  // namespace recstack
