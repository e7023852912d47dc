#include "graph/compiled_net.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <unordered_map>

#include "ops/concat.h"
#include "ops/elementwise.h"
#include "ops/fc.h"
#include "ops/fused.h"
#include "ops/reshape.h"

namespace recstack {
namespace {

std::atomic<uint64_t> g_compile_count{0};

constexpr size_t kArenaAlign = 64;

size_t
alignUp(size_t n)
{
    return (n + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

/// blob name -> indices of schedule ops that read it.
using ConsumerMap = std::unordered_map<std::string, std::vector<size_t>>;

ConsumerMap
buildConsumers(const std::vector<Operator*>& sched)
{
    ConsumerMap m;
    for (size_t i = 0; i < sched.size(); ++i) {
        for (const auto& input : sched[i]->inputs()) {
            m[input].push_back(i);
        }
    }
    return m;
}

/// blob name -> index of the schedule op that produces it.
std::unordered_map<std::string, size_t>
buildProducers(const std::vector<Operator*>& sched)
{
    std::unordered_map<std::string, size_t> m;
    for (size_t i = 0; i < sched.size(); ++i) {
        for (const auto& output : sched[i]->outputs()) {
            m.emplace(output, i);
        }
    }
    return m;
}

uint64_t
maxCodeBytes(const std::vector<Operator*>& window)
{
    // A fused kernel is one specialized code region standing in for
    // the whole window, so its unique-code footprint is the largest
    // absorbed region, not the sum.
    uint64_t bytes = 0;
    for (const Operator* op : window) {
        bytes = std::max(bytes, op->uniqueCodeBytes());
    }
    return bytes;
}

/// A matched unrolled-(AU)GRU timestep window (builders_attention.cc
/// emits 22 consecutive ops per plain step, 24 per attentional step).
struct GruWindow {
    size_t len = 0;
    std::string name;
    std::string seq, h, wx, bx, wh, bh, att, h_new;
    int64_t step = 0;
};

bool
matchGruWindow(const std::vector<Operator*>& sched, size_t i,
               const ConsumerMap& consumers,
               const std::set<std::string>& ext_out, GruWindow* out)
{
    // Longest variant is 24 ops; bail early when the tail can't fit.
    if (i + 22 > sched.size()) {
        return false;
    }

    // x_t = Seq[:, t, :]
    auto* sx = dynamic_cast<SliceOp*>(sched[i]);
    if (sx == nullptr) {
        return false;
    }
    const int64_t t = sx->index();
    const std::string& seq = sx->inputs()[0];
    const std::string& xt = sx->outputs()[0];

    // gx = x_t Wx^T + bx ; gh = h Wh^T + bh
    auto* fx = dynamic_cast<FCOp*>(sched[i + 1]);
    auto* fh = dynamic_cast<FCOp*>(sched[i + 2]);
    if (fx == nullptr || fh == nullptr || fx->inputs()[0] != xt) {
        return false;
    }
    const std::string& wx = fx->inputs()[1];
    const std::string& bx = fx->inputs()[2];
    const std::string& gx2 = fx->outputs()[0];
    const std::string& h = fh->inputs()[0];
    const std::string& wh = fh->inputs()[1];
    const std::string& bh = fh->inputs()[2];
    const std::string& gh2 = fh->outputs()[0];

    // Reshape both gate stacks to [B, 3, H].
    auto* rx = dynamic_cast<ReshapeOp*>(sched[i + 3]);
    auto* rh = dynamic_cast<ReshapeOp*>(sched[i + 4]);
    if (rx == nullptr || rh == nullptr || rx->inputs()[0] != gx2 ||
        rh->inputs()[0] != gh2) {
        return false;
    }
    const auto& shape = rx->targetShape();
    if (shape.size() != 3 || shape[0] != -1 || shape[1] != 3 ||
        shape[2] <= 0 || rh->targetShape() != shape) {
        return false;
    }
    const std::string& gx3 = rx->outputs()[0];
    const std::string& gh3 = rh->outputs()[0];

    // Six gate slices: r/z/n out of each stack, in index order.
    std::string gates[6];
    for (int g = 0; g < 6; ++g) {
        auto* s = dynamic_cast<SliceOp*>(sched[i + 5 + g]);
        const std::string& src = g < 3 ? gx3 : gh3;
        if (s == nullptr || s->inputs()[0] != src || s->index() != g % 3) {
            return false;
        }
        gates[g] = s->outputs()[0];
    }
    const std::string& gxr = gates[0];
    const std::string& gxz = gates[1];
    const std::string& gxn = gates[2];
    const std::string& ghr = gates[3];
    const std::string& ghz = gates[4];
    const std::string& ghn = gates[5];

    auto binary = [&](size_t idx, BinaryFn fn, const std::string& a,
                      const std::string& b) -> const std::string* {
        auto* op = dynamic_cast<BinaryOp*>(sched[idx]);
        if (op == nullptr || op->fn() != fn || op->inputs()[0] != a ||
            op->inputs()[1] != b) {
            return nullptr;
        }
        return &op->outputs()[0];
    };
    auto unary = [&](size_t idx, UnaryFn fn,
                     const std::string& x) -> const std::string* {
        auto* op = dynamic_cast<UnaryOp*>(sched[idx]);
        if (op == nullptr || op->fn() != fn || op->inputs()[0] != x) {
            return nullptr;
        }
        return &op->outputs()[0];
    };

    // r = sigmoid(gxr + ghr) ; z = sigmoid(gxz + ghz)
    const std::string* ar = binary(i + 11, BinaryFn::kAdd, gxr, ghr);
    if (ar == nullptr) {
        return false;
    }
    const std::string* r = unary(i + 12, UnaryFn::kSigmoid, *ar);
    if (r == nullptr) {
        return false;
    }
    const std::string* az = binary(i + 13, BinaryFn::kAdd, gxz, ghz);
    if (az == nullptr) {
        return false;
    }
    const std::string* z = unary(i + 14, UnaryFn::kSigmoid, *az);
    if (z == nullptr) {
        return false;
    }

    // Attentional variant: z *= Att[:, t, 0].
    size_t j = i + 15;
    std::string att;
    if (auto* sa = dynamic_cast<SliceOp*>(sched[j])) {
        if (i + 24 > sched.size() || sa->index() != t) {
            return false;
        }
        att = sa->inputs()[0];
        const std::string& at = sa->outputs()[0];
        const std::string* z2 = binary(j + 1, BinaryFn::kMul, *z, at);
        if (z2 == nullptr) {
            return false;
        }
        z = z2;
        j += 2;
    }
    if (j + 7 > sched.size()) {
        return false;
    }

    // n = tanh(gxn + r * ghn) ; h' = (n - z*n) + z*h
    const std::string* rg = binary(j, BinaryFn::kMul, *r, ghn);
    if (rg == nullptr) {
        return false;
    }
    const std::string* an = binary(j + 1, BinaryFn::kAdd, gxn, *rg);
    if (an == nullptr) {
        return false;
    }
    const std::string* n = unary(j + 2, UnaryFn::kTanh, *an);
    if (n == nullptr) {
        return false;
    }
    const std::string* zn = binary(j + 3, BinaryFn::kMul, *z, *n);
    if (zn == nullptr) {
        return false;
    }
    const std::string* zh = binary(j + 4, BinaryFn::kMul, *z, h);
    if (zh == nullptr) {
        return false;
    }
    const std::string* nzn = binary(j + 5, BinaryFn::kSub, *n, *zn);
    if (nzn == nullptr) {
        return false;
    }
    const std::string* h_new = binary(j + 6, BinaryFn::kAdd, *nzn, *zh);
    if (h_new == nullptr) {
        return false;
    }
    const size_t len = j + 7 - i;

    // Every intermediate must die inside the window: no consumer past
    // it and no external-output role, or the fused op would hide a
    // blob somebody still reads.
    for (size_t k = i; k < i + len; ++k) {
        for (const auto& output : sched[k]->outputs()) {
            if (output == *h_new) {
                continue;
            }
            if (ext_out.count(output)) {
                return false;
            }
            auto it = consumers.find(output);
            if (it != consumers.end()) {
                for (size_t c : it->second) {
                    if (c < i || c >= i + len) {
                        return false;
                    }
                }
            }
        }
    }

    out->len = len;
    out->seq = seq;
    out->h = h;
    out->wx = wx;
    out->bx = bx;
    out->wh = wh;
    out->bh = bh;
    out->att = att;
    out->h_new = *h_new;
    out->step = t;
    // "<stem>_tN_slice_x" -> "<stem>_tN_gru_step"
    std::string name = sx->name();
    const std::string suffix = "_slice_x";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
        name.resize(name.size() - suffix.size());
    }
    out->name = name + "_gru_step";
    return true;
}

std::vector<std::string>
windowNames(const std::vector<Operator*>& window)
{
    std::vector<std::string> names;
    names.reserve(window.size());
    for (const Operator* op : window) {
        names.push_back(op->name());
    }
    return names;
}

}  // namespace

std::byte*
Arena::ensure(size_t bytes)
{
    if (bytes + kArenaAlign > storage_.size()) {
        storage_.resize(bytes + kArenaAlign);
        capacity_ = bytes;
    }
    capacity_ = std::max(capacity_, bytes);
    auto addr = reinterpret_cast<uintptr_t>(storage_.data());
    return storage_.data() + (alignUp(addr) - addr);
}

std::shared_ptr<CompiledNet>
CompiledNet::compile(const NetDef& net, CompileOptions opts)
{
    g_compile_count.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<CompiledNet>(new CompiledNet(net, opts));
}

uint64_t
CompiledNet::compileCount()
{
    return g_compile_count.load(std::memory_order_relaxed);
}

CompiledNet::CompiledNet(const NetDef& net, CompileOptions opts)
    : net_(&net), planMemory_(opts.planMemory)
{
    net.validate();
    ops_.reserve(net.opCount());
    for (const auto& op : net.ops()) {
        ops_.push_back(op.get());
    }
    if (opts.fuseOps) {
        applyFusion();
    }
    buildBlobTable();
}

void
CompiledNet::applyFusion()
{
    const std::set<std::string> ext_out(net_->externalOutputs().begin(),
                                        net_->externalOutputs().end());

    // Pass 1: unrolled (AU)GRU timestep windows -> GRUStepOp. Runs
    // before FC fusion so the per-step FC pair is still recognizable.
    {
        const ConsumerMap consumers = buildConsumers(ops_);
        std::vector<Operator*> next;
        next.reserve(ops_.size());
        size_t i = 0;
        while (i < ops_.size()) {
            GruWindow w;
            if (matchGruWindow(ops_, i, consumers, ext_out, &w)) {
                std::vector<Operator*> window(
                    ops_.begin() + static_cast<ptrdiff_t>(i),
                    ops_.begin() + static_cast<ptrdiff_t>(i + w.len));
                auto fused = std::make_unique<GRUStepOp>(
                    w.name, w.seq, w.h, w.wx, w.bx, w.wh, w.bh, w.att,
                    w.h_new, w.step);
                fused->setUniqueCodeBytes(maxCodeBytes(window));
                fusions_.push_back({w.att.empty() ? "gru-step"
                                                  : "augru-step",
                                    w.name, windowNames(window)});
                next.push_back(fused.get());
                owned_.push_back(std::move(fused));
                i += w.len;
            } else {
                next.push_back(ops_[i]);
                ++i;
            }
        }
        ops_ = std::move(next);
    }

    // Pass 2: FC + single-consumer activation -> FusedFC.
    {
        const ConsumerMap consumers = buildConsumers(ops_);
        const auto producers = buildProducers(ops_);
        for (size_t j = 0; j < ops_.size(); ++j) {
            auto* u = dynamic_cast<UnaryOp*>(ops_[j]);
            if (u == nullptr) {
                continue;
            }
            const std::string& x = u->inputs()[0];
            auto pit = producers.find(x);
            if (pit == producers.end()) {
                continue;
            }
            auto* fc = dynamic_cast<FCOp*>(ops_[pit->second]);
            if (fc == nullptr || ext_out.count(x) ||
                consumers.at(x).size() != 1) {
                continue;
            }
            FusedAct act = FusedAct::kNone;
            switch (u->fn()) {
              case UnaryFn::kRelu: act = FusedAct::kRelu; break;
              case UnaryFn::kSigmoid: act = FusedAct::kSigmoid; break;
              case UnaryFn::kTanh: act = FusedAct::kTanh; break;
            }
            auto fused = std::make_unique<FusedFCOp>(
                fc->name() + "+" + u->name(),
                std::vector<std::string>{fc->inputs()[0]}, fc->inputs()[1],
                fc->inputs()[2], u->outputs()[0], act);
            fused->setUniqueCodeBytes(maxCodeBytes({ops_[pit->second], u}));
            fusions_.push_back({"fc+act", fused->name(),
                                {fc->name(), u->name()}});
            ops_[j] = fused.get();
            ops_[pit->second] = nullptr;
            owned_.push_back(std::move(fused));
        }
        ops_.erase(std::remove(ops_.begin(), ops_.end(), nullptr),
                   ops_.end());
    }

    // Pass 3: concat whose only reader is an FC's X -> fold the blocks
    // into the FC. Accumulating blocks in concat order is bit-identical
    // to FC over the materialized concat row, and it deletes the
    // window's largest activation (the concat output).
    {
        const ConsumerMap consumers = buildConsumers(ops_);
        const auto producers = buildProducers(ops_);
        for (size_t j = 0; j < ops_.size(); ++j) {
            std::vector<std::string> xs;
            std::string w, b, y, fc_name;
            FusedAct act = FusedAct::kNone;
            if (auto* fc = dynamic_cast<FCOp*>(ops_[j])) {
                xs = {fc->inputs()[0]};
                w = fc->inputs()[1];
                b = fc->inputs()[2];
                y = fc->outputs()[0];
                fc_name = fc->name();
            } else if (auto* ff = dynamic_cast<FusedFCOp*>(ops_[j])) {
                if (ff->numBlocks() != 1) {
                    continue;
                }
                xs = {ff->inputs()[0]};
                w = ff->inputs()[1];
                b = ff->inputs()[2];
                y = ff->outputs()[0];
                fc_name = ff->name();
                act = ff->act();
            } else {
                continue;
            }
            auto pit = producers.find(xs[0]);
            if (pit == producers.end()) {
                continue;
            }
            auto* concat = dynamic_cast<ConcatOp*>(ops_[pit->second]);
            if (concat == nullptr || ext_out.count(xs[0]) ||
                consumers.at(xs[0]).size() != 1) {
                continue;
            }
            auto fused = std::make_unique<FusedFCOp>(
                concat->name() + "+" + fc_name, concat->inputs(), w, b, y,
                act);
            fused->setUniqueCodeBytes(
                maxCodeBytes({ops_[pit->second], ops_[j]}));
            fusions_.push_back({"concat+fc", fused->name(),
                                {concat->name(), fc_name}});
            ops_[j] = fused.get();
            ops_[pit->second] = nullptr;
            owned_.push_back(std::move(fused));
        }
        ops_.erase(std::remove(ops_.begin(), ops_.end(), nullptr),
                   ops_.end());
    }
}

void
CompiledNet::buildBlobTable()
{
    std::unordered_map<std::string, size_t> index;
    auto add = [&](const std::string& name, BlobRole role, int def) {
        index.emplace(name, blobs_.size());
        BlobInfo info;
        info.name = name;
        info.role = role;
        info.def = def;
        info.lastUse = def;
        blobs_.push_back(std::move(info));
    };

    for (const auto& input : net_->externalInputs()) {
        add(input, BlobRole::kExternalInput, -1);
    }
    for (size_t i = 0; i < ops_.size(); ++i) {
        for (const auto& input : ops_[i]->inputs()) {
            auto it = index.find(input);
            RECSTACK_CHECK(it != index.end(),
                           "compiled '" << name() << "': fused op '"
                                        << ops_[i]->name()
                                        << "' reads unknown blob '" << input
                                        << "'");
            blobs_[it->second].lastUse = static_cast<int>(i);
        }
        for (const auto& output : ops_[i]->outputs()) {
            add(output, BlobRole::kActivation, static_cast<int>(i));
        }
    }
    for (const auto& output : net_->externalOutputs()) {
        auto it = index.find(output);
        RECSTACK_CHECK(it != index.end(),
                       "compiled '" << name() << "': external output '"
                                    << output << "' vanished in fusion");
        blobs_[it->second].role = BlobRole::kExternalOutput;
        blobs_[it->second].lastUse = static_cast<int>(ops_.size());
    }
}

const NetPlan&
CompiledNet::plan(const Workspace& ws, int64_t batch)
{
    std::lock_guard<std::mutex> lock(planMu_);
    auto it = plans_.find(batch);
    if (it == plans_.end()) {
        it = plans_.emplace(batch, specialize(ws, batch)).first;
    }
    return *it->second;
}

std::unique_ptr<NetPlan>
CompiledNet::specialize(const Workspace& ws, int64_t batch) const
{
    auto plan = std::make_unique<NetPlan>();
    plan->batch = batch;
    // Lowering-time ISA choice: the plan is pinned to the tier active
    // when it was specialized (see NetPlan::kernelIsa).
    plan->kernelIsa = activeKernelIsa();

    // Static shape inference over the fused schedule, in a shape-only
    // scratch workspace seeded with the caller's external-input shapes.
    Workspace shapes;
    shapes.setShapeOnly(true);
    // Store-backed table blobs are shape-only in ws; the scratch
    // workspace inherits the store so plan-time profile lowering sees
    // the same cache-filtered table streams a live run would.
    shapes.attachStore(ws.store());
    for (const BlobInfo& blob : blobs_) {
        if (blob.role != BlobRole::kExternalInput) {
            continue;
        }
        RECSTACK_CHECK(ws.has(blob.name),
                       "plan('" << name() << "', batch " << batch
                                << "): external input '" << blob.name
                                << "' not declared in the workspace");
        const Tensor& t = ws.get(blob.name);
        shapes.set(blob.name, Tensor::shapeOnly(t.shape(), t.dtype()));
    }
    for (Operator* op : ops_) {
        op->inferShapes(shapes);
    }

    plan->shapes.reserve(blobs_.size());
    for (const BlobInfo& blob : blobs_) {
        const Tensor& t = shapes.get(blob.name);
        plan->shapes.push_back(t.shape());
        plan->dtypes.push_back(t.dtype());
        plan->bytes.push_back(t.byteSize());
        plan->offsets.push_back(kNoArenaOffset);
    }

    // Profiles are lowered once here, with the executor's unique-code
    // rewrite pre-applied, so compiled runs never re-lower.
    plan->profiles.reserve(ops_.size());
    for (const Operator* op : ops_) {
        KernelProfile kp = op->profile(shapes);
        if (op->uniqueCodeBytes() > 0) {
            kp.codeRegion = "op:" + op->name();
            kp.codeFootprintBytes = op->uniqueCodeBytes();
        }
        plan->profiles.push_back(std::move(kp));
    }

    // Naive cost: what the interpreted path allocates for the same
    // batch — one live allocation per activation of the *original*
    // (unfused) net.
    {
        Workspace naive;
        naive.setShapeOnly(true);
        for (const auto& input : net_->externalInputs()) {
            const Tensor& t = shapes.get(input);
            naive.set(input, Tensor::shapeOnly(t.shape(), t.dtype()));
        }
        const std::set<std::string> ext_out(net_->externalOutputs().begin(),
                                            net_->externalOutputs().end());
        for (const auto& op : net_->ops()) {
            op->inferShapes(naive);
            for (const auto& output : op->outputs()) {
                if (!ext_out.count(output)) {
                    plan->naiveActivationBytes +=
                        naive.get(output).byteSize();
                }
            }
        }
    }

    // Arena assignment: size-descending first-fit over the offset
    // intervals of lifetime-overlapping, already-placed blobs.
    std::vector<size_t> order;
    for (size_t i = 0; i < blobs_.size(); ++i) {
        if (blobs_[i].role == BlobRole::kActivation) {
            plan->fusedActivationBytes += plan->bytes[i];
            if (planMemory_ && plan->bytes[i] > 0) {
                order.push_back(i);
            }
        }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return plan->bytes[a] > plan->bytes[b];
                     });
    std::vector<size_t> placed;
    for (size_t i : order) {
        const size_t size = alignUp(plan->bytes[i]);
        // Offset intervals currently claimed over this blob's lifetime.
        std::vector<std::pair<size_t, size_t>> busy;
        for (size_t p : placed) {
            if (blobs_[i].def <= blobs_[p].lastUse &&
                blobs_[p].def <= blobs_[i].lastUse) {
                busy.emplace_back(plan->offsets[p],
                                  plan->offsets[p] + alignUp(plan->bytes[p]));
            }
        }
        std::sort(busy.begin(), busy.end());
        size_t offset = 0;
        for (const auto& [start, end] : busy) {
            if (offset + size <= start) {
                break;
            }
            offset = std::max(offset, end);
        }
        plan->offsets[i] = offset;
        plan->arenaBytes = std::max(plan->arenaBytes, offset + size);
        placed.push_back(i);
    }
    return plan;
}

void
CompiledNet::bind(Workspace& ws, Arena& arena, const NetPlan& plan) const
{
    std::byte* base =
        plan.arenaBytes > 0 ? arena.ensure(plan.arenaBytes) : nullptr;
    for (size_t i = 0; i < blobs_.size(); ++i) {
        const BlobInfo& blob = blobs_[i];
        if (blob.role == BlobRole::kExternalInput) {
            const Tensor& t = ws.get(blob.name);
            RECSTACK_CHECK(t.shape() == plan.shapes[i] &&
                               t.dtype() == plan.dtypes[i],
                           "bind('" << name() << "'): external input '"
                                    << blob.name << "' is " << t.describe()
                                    << " but the batch-" << plan.batch
                                    << " plan expects a different shape");
        } else if (plan.offsets[i] != kNoArenaOffset) {
            ws.set(blob.name, Tensor::view(plan.shapes[i], plan.dtypes[i],
                                           base + plan.offsets[i]));
        } else {
            ws.ensure(blob.name, plan.shapes[i], plan.dtypes[i]);
        }
    }
}

}  // namespace recstack
