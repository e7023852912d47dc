#include "workload/batch_generator.h"

#include <cmath>

#include "common/rng.h"
#include "ops/op_costs.h"

namespace recstack {

PoissonProcess::PoissonProcess(double rate_qps, uint64_t seed)
    : rate_(rate_qps), rng_(seed)
{
    RECSTACK_CHECK(rate_ > 0.0, "arrival rate must be > 0");
}

double
PoissonProcess::next()
{
    now_ += -std::log(1.0 - rng_.nextDouble()) / rate_;
    return now_;
}

BatchGenerator::BatchGenerator(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed)
{
    // ZipfSampler degenerates to uniform at exponent 0 with the
    // identical nextBounded draw, so one synthesis path covers both
    // skewed and uniform tables bit-for-bit.
    zipf_.reserve(spec_.categorical.size());
    for (const auto& cat : spec_.categorical) {
        zipf_.emplace_back(static_cast<uint64_t>(cat.tableRows),
                           cat.zipfExponent);
    }
}

void
BatchGenerator::materialize(Workspace& ws, int64_t batch) const
{
    RECSTACK_CHECK(batch > 0, "batch size must be positive");
    Rng rng(seed_ ^ static_cast<uint64_t>(batch) * 0x9e3779b9ull);

    for (size_t t = 0; t < spec_.categorical.size(); ++t) {
        const CategoricalFeatureSpec& cat = spec_.categorical[t];
        const int64_t total = batch * cat.lookupsPerSample;
        Tensor indices({total}, DType::kInt64);
        fillZipfIndices(zipf_[t], rng, indices.data<int64_t>(), total);
        ws.set(cat.indicesBlob, std::move(indices));

        Tensor lengths({batch}, DType::kInt32);
        int32_t* len = lengths.data<int32_t>();
        for (int64_t b = 0; b < batch; ++b) {
            len[b] = static_cast<int32_t>(cat.lookupsPerSample);
        }
        ws.set(cat.lengthsBlob, std::move(lengths));

        if (!cat.weightsBlob.empty()) {
            Tensor weights({total});
            float* w = weights.data<float>();
            for (int64_t i = 0; i < total; ++i) {
                w[i] = rng.nextFloat(0.0f, 1.0f);
            }
            ws.set(cat.weightsBlob, std::move(weights));
        }
    }

    for (const auto& cont : spec_.continuous) {
        Tensor dense({batch, cont.dim});
        float* x = dense.data<float>();
        for (int64_t i = 0; i < batch * cont.dim; ++i) {
            x[i] = rng.nextFloat(-1.0f, 1.0f);
        }
        ws.set(cont.blob, std::move(dense));
    }
}

void
BatchGenerator::declare(Workspace& ws, int64_t batch) const
{
    RECSTACK_CHECK(batch > 0, "batch size must be positive");
    for (const auto& cat : spec_.categorical) {
        ws.set(cat.indicesBlob,
               Tensor::shapeOnly({batch * cat.lookupsPerSample},
                                 DType::kInt64));
        ws.set(cat.lengthsBlob,
               Tensor::shapeOnly({batch}, DType::kInt32));
        if (!cat.weightsBlob.empty()) {
            ws.set(cat.weightsBlob,
                   Tensor::shapeOnly({batch * cat.lookupsPerSample}));
        }
    }
    for (const auto& cont : spec_.continuous) {
        ws.set(cont.blob, Tensor::shapeOnly({batch, cont.dim}));
    }
}

uint64_t
BatchGenerator::inputBytes(int64_t batch) const
{
    uint64_t bytes = 0;
    for (const auto& cat : spec_.categorical) {
        bytes += static_cast<uint64_t>(batch) *
                 (static_cast<uint64_t>(cat.lookupsPerSample) * 8 + 4);
        if (!cat.weightsBlob.empty()) {
            bytes += static_cast<uint64_t>(
                         batch * cat.lookupsPerSample) * 4;
        }
    }
    for (const auto& cont : spec_.continuous) {
        bytes += static_cast<uint64_t>(batch * cont.dim) * 4;
    }
    return bytes;
}

KernelProfile
BatchGenerator::dataLoadProfile(int64_t batch) const
{
    KernelProfile kp;
    kp.opType = "DataLoad";
    kp.opName = "data_load";
    const uint64_t bytes = inputBytes(batch);

    // Deserialize + copy into framework tensors: one read of the wire
    // buffer, one write into blobs, plus per-sample parsing glue.
    kp.vecElemOps = bytes / 4;
    kp.scalarOps = static_cast<uint64_t>(batch) *
                   (spec_.categorical.size() * 12 +
                    spec_.continuous.size() * 4) + 256;

    MemStream wire;
    wire.region = "wire:input";
    wire.pattern = AccessPattern::kSequential;
    wire.chunkBytes = 64;
    wire.accesses = (bytes + 63) / 64;
    wire.footprintBytes = bytes;
    wire.mlp = opcost::kMlpSequential;
    kp.streams.push_back(wire);

    MemStream blobs = wire;
    blobs.region = "blob:inputs";
    blobs.isWrite = true;
    kp.streams.push_back(blobs);

    BranchStream parse;
    parse.count = static_cast<uint64_t>(batch) *
                  (spec_.categorical.size() + spec_.continuous.size() + 1);
    parse.takenProbability = 0.85;
    parse.randomness = 0.3;
    kp.branches.push_back(parse);

    kp.codeFootprintBytes = 4096;
    kp.codeRegion = "kernel:DataLoad";
    kp.codeIterations = std::max<uint64_t>(1, bytes / 256);
    kp.dispatchOps = opcost::kDispatchOps;
    kp.dispatchCodeBytes = opcost::kDispatchCodeBytes;
    return kp;
}

}  // namespace recstack
