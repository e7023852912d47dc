#include "ops/operator.h"

#include "ops/op_costs.h"

namespace recstack {

Operator::Operator(std::string type, std::string name,
                   std::vector<std::string> inputs,
                   std::vector<std::string> outputs)
    : type_(std::move(type)), name_(std::move(name)),
      inputs_(std::move(inputs)), outputs_(std::move(outputs))
{
}

Operator::~Operator() = default;

const Tensor&
Operator::in(const Workspace& ws, size_t i) const
{
    RECSTACK_CHECK(i < inputs_.size(),
                   type_ << " op '" << name_ << "': input " << i
                         << " out of range");
    return ws.get(inputs_[i]);
}

Tensor&
Operator::out(Workspace& ws, size_t i) const
{
    RECSTACK_CHECK(i < outputs_.size(),
                   type_ << " op '" << name_ << "': output " << i
                         << " out of range");
    return ws.get(outputs_[i]);
}

const Tensor&
Operator::outConst(const Workspace& ws, size_t i) const
{
    RECSTACK_CHECK(i < outputs_.size(),
                   type_ << " op '" << name_ << "': output " << i
                         << " out of range");
    return ws.get(outputs_[i]);
}

KernelProfile
Operator::lowerProfile(const Workspace& ws) const
{
    KernelProfile kp = profile(ws);
    if (uniqueCodeBytes_ > 0) {
        kp.codeRegion = "op:" + name_;
        kp.codeFootprintBytes = uniqueCodeBytes_;
    }
    return kp;
}

KernelProfile
Operator::baseProfile() const
{
    KernelProfile kp;
    kp.opType = displayType();
    kp.opName = name_;
    kp.dispatchOps = opcost::kDispatchOps;
    kp.dispatchCodeBytes = opcost::kDispatchCodeBytes;
    BranchStream dispatch;
    dispatch.count = opcost::kDispatchBranches;
    dispatch.takenProbability = 0.6;
    dispatch.randomness = opcost::kDispatchBranchRandomness;
    kp.branches.push_back(dispatch);
    // Framework-metadata pointer chasing (shared heap region).
    MemStream meta;
    meta.region = "framework:heap";
    meta.pattern = AccessPattern::kRandom;
    meta.accesses = opcost::kDispatchMetaAccesses;
    meta.chunkBytes = 16;  // scalar pointer-sized touches
    meta.footprintBytes = opcost::kDispatchMetaRegionBytes;
    meta.mlp = opcost::kDispatchMetaMlp;
    kp.streams.push_back(meta);
    return kp;
}

void
Operator::addSeqStream(KernelProfile& kp, const std::string& region,
                       const Tensor& t, bool is_write)
{
    if (t.byteSize() == 0) {
        return;
    }
    MemStream s;
    s.region = region;
    s.pattern = AccessPattern::kSequential;
    s.chunkBytes = 64;
    s.accesses = (t.byteSize() + s.chunkBytes - 1) / s.chunkBytes;
    s.footprintBytes = t.byteSize();
    s.isWrite = is_write;
    s.mlp = opcost::kMlpSequential;
    kp.streams.push_back(s);
}

}  // namespace recstack
