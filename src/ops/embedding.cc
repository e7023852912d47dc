#include "ops/embedding.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "ops/kernels.h"
#include "ops/op_costs.h"
#include "store/embedding_store.h"

namespace recstack {
namespace {

/**
 * Serial prevalidation of a lookup index stream: every index must
 * lie in [0, rows). Running it before any parallel region keeps
 * panics on the calling thread (death tests and fork children never
 * touch the pool).
 */
void
checkIndexRange(std::string_view op, const std::string& name,
                const int64_t* indices, int64_t num_indices, int64_t rows)
{
    for (int64_t i = 0; i < num_indices; ++i) {
        RECSTACK_CHECK(indices[i] >= 0 && indices[i] < rows,
                       op << " '" << name << "': index " << indices[i]
                          << " out of range");
    }
}

/**
 * Serial prevalidation of a lengths-segmented index stream: checks
 * that lengths exactly cover the indices and every index is in
 * range, and returns per-output-row starting offsets so the pooling
 * loop can be partitioned per output row.
 */
std::vector<int64_t>
segmentOffsets(std::string_view op, const std::string& name,
               const int32_t* lengths, int64_t batch,
               const int64_t* indices, int64_t num_indices, int64_t rows)
{
    std::vector<int64_t> offsets(static_cast<size_t>(batch) + 1, 0);
    for (int64_t b = 0; b < batch; ++b) {
        offsets[static_cast<size_t>(b) + 1] =
            offsets[static_cast<size_t>(b)] + lengths[b];
    }
    RECSTACK_CHECK(offsets[static_cast<size_t>(batch)] == num_indices,
                   op << " '" << name << "': lengths do not cover indices");
    checkIndexRange(op, name, indices, num_indices, rows);
    return offsets;
}

/** Pooling grain: rows per chunk given dim and mean pooling factor. */
int64_t
poolingGrain(int64_t dim, int64_t num_indices, int64_t batch)
{
    const int64_t mean_pool =
        batch > 0 ? std::max<int64_t>(1, num_indices / batch) : 1;
    return grainForCost(static_cast<uint64_t>(dim * (mean_pool + 1)));
}

/** Random-gather stream over an embedding table. */
MemStream
tableStream(const std::string& region, uint64_t accesses,
            uint64_t row_bytes, uint64_t table_bytes, double zipf)
{
    MemStream s;
    s.region = region;
    s.pattern = AccessPattern::kRandom;
    s.accesses = accesses;
    s.chunkBytes = row_bytes;
    s.footprintBytes = table_bytes;
    s.zipfExponent = zipf;
    s.mlp = opcost::kMlpGather;
    return s;
}

/**
 * Resolution of a table blob against the workspace's attached
 * embedding store: the store serves the reads iff it owns a table of
 * that name AND the workspace blob is a shape-only stand-in. A
 * materialized local blob always wins, keeping dense workspaces
 * (and the differential tests' reference path) untouched.
 */
struct StoreRef {
    EmbeddingStore* store = nullptr;
    int table = -1;
};

StoreRef
storeRef(const Workspace& ws, const std::string& blob,
         const Tensor& data)
{
    StoreRef ref;
    if (data.materialized()) {
        return ref;
    }
    EmbeddingStore* store = ws.store();
    if (store == nullptr) {
        return ref;
    }
    const int table = store->tableId(blob);
    if (table < 0) {
        return ref;
    }
    ref.store = store;
    ref.table = table;
    return ref;
}

/**
 * The one row walk of the lookup kernels: fn(p, row) for each p in
 * [lo, hi), ascending, with row the payload of table row indices[p].
 * A store-backed table resolves it under the store's shard lock; a
 * dense blob is read in place. Pooling and copying happen in fn, so
 * both backings share one loop and one fp32 order.
 */
template <class Fn>
void
visitRows(const StoreRef& ref, const float* data, int64_t dim,
          const int64_t* indices, int64_t lo, int64_t hi, Fn&& fn)
{
    if (ref.store != nullptr) {
        ref.store->forEachRow(ref.table, indices, lo, hi, fn);
        return;
    }
    for (int64_t p = lo; p < hi; ++p) {
        fn(p, data + indices[p] * dim);
    }
}

/**
 * Emit the table-side memory streams of a lookup kernel. Dense blob:
 * the single skewed random stream over the whole table. Store-backed
 * blob: the stream the memory hierarchy actually sees after the
 * store's hot-row cache filtered it — an expected-hit share over the
 * cache footprint plus the miss remainder split between the near
 * tier and a serialized far-tier stream. This is how Fig. 12/14-style
 * DRAM-bandwidth analyses observe cache-filtered table traffic.
 */
void
addTableStreams(KernelProfile& kp, const Workspace& ws,
                const std::string& blob, const Tensor& data,
                uint64_t lookups, double zipf)
{
    const uint64_t row_bytes =
        static_cast<uint64_t>(data.dim(1)) * 4;
    const StoreRef ref = storeRef(ws, blob, data);
    if (ref.store == nullptr) {
        kp.streams.push_back(tableStream(blob, lookups, row_bytes,
                                         data.byteSize(), zipf));
        return;
    }
    const EmbeddingStore& store = *ref.store;
    const EmbeddingStore::TableInfo& info = store.tableInfo(ref.table);
    const double hit_rate = store.expectedHitRate(ref.table, zipf);
    const double far_frac = store.farTierFraction(ref.table, zipf);
    uint64_t hits = std::min<uint64_t>(
        lookups,
        static_cast<uint64_t>(std::llround(
            hit_rate * static_cast<double>(lookups))));
    const uint64_t misses = lookups - hits;
    const uint64_t far = std::min<uint64_t>(
        misses, static_cast<uint64_t>(std::llround(
                    far_frac * static_cast<double>(lookups))));
    const uint64_t near = misses - far;
    if (hits > 0) {
        MemStream s = tableStream(
            "store:cache:" + blob, hits, row_bytes,
            std::min<uint64_t>(store.cacheCapacityBytes(),
                               data.byteSize()),
            zipf);
        kp.streams.push_back(s);
    }
    if (near > 0) {
        // The cache absorbed the Zipf head; residual misses spread
        // near-uniformly over the cold near-tier rows.
        MemStream s = tableStream(
            "store:near:" + blob, near, row_bytes,
            static_cast<uint64_t>(info.nearRows) * row_bytes, 0.0);
        kp.streams.push_back(s);
    }
    if (far > 0) {
        MemStream s = tableStream(
            "store:far:" + blob, far, row_bytes,
            static_cast<uint64_t>(info.rows - info.nearRows) *
                row_bytes,
            0.0);
        s.mlp = 1.0;  // long-latency far fetches barely overlap
        kp.streams.push_back(s);
    }
}

/** Caffe2's input order: data, [weights,] indices, lengths. */
std::vector<std::string>
slsInputs(SlsKind kind, std::string data, std::string weights,
          std::string indices, std::string lengths)
{
    std::vector<std::string> inputs = {std::move(data)};
    if (kind == SlsKind::kWeightedSum) {
        inputs.push_back(std::move(weights));
    }
    inputs.push_back(std::move(indices));
    inputs.push_back(std::move(lengths));
    return inputs;
}

}  // namespace

SparseLengthsReduceOp::SparseLengthsReduceOp(
    SlsKind kind, std::string name, std::string data, std::string weights,
    std::string indices, std::string lengths, std::string out,
    double zipf_exponent)
    : Operator(std::string(slsKindInfo(kind).opType), std::move(name),
               slsInputs(kind, std::move(data), std::move(weights),
                         std::move(indices), std::move(lengths)),
               {std::move(out)}),
      kind_(kind),
      zipfExponent_(zipf_exponent)
{
}

void
SparseLengthsReduceOp::inferShapes(Workspace& ws)
{
    const std::string_view op = slsKindInfo(kind_).prefix;
    const size_t n = inputs().size();
    const Tensor& data = in(ws, 0);
    const Tensor& indices = in(ws, n - 2);
    const Tensor& lengths = in(ws, n - 1);
    RECSTACK_CHECK(data.rank() == 2, op << " '" << name()
                   << "': data must be 2-D");
    if (kind_ == SlsKind::kWeightedSum) {
        RECSTACK_CHECK(in(ws, 1).numel() == indices.numel(),
                       op << " '" << name()
                          << "': one weight per lookup required");
    }
    RECSTACK_CHECK(indices.dtype() == DType::kInt64,
                   op << " '" << name() << "': indices must be int64");
    RECSTACK_CHECK(lengths.dtype() == DType::kInt32,
                   op << " '" << name() << "': lengths must be int32");
    ws.ensure(outputs()[0], {lengths.numel(), data.dim(1)});
}

void
SparseLengthsReduceOp::run(Workspace& ws)
{
    const size_t n = inputs().size();
    const Tensor& data_t = in(ws, 0);
    const Tensor& idx_t = in(ws, n - 2);
    const Tensor& len_t = in(ws, n - 1);
    Tensor& out_t = out(ws, 0);

    const StoreRef sref = storeRef(ws, inputs()[0], data_t);
    const float* data =
        sref.store != nullptr ? nullptr : data_t.data<float>();
    const float* w = kind_ == SlsKind::kWeightedSum
                         ? in(ws, 1).data<float>()
                         : nullptr;
    const int64_t* indices = idx_t.data<int64_t>();
    const int32_t* lengths = len_t.data<int32_t>();
    float* y = out_t.data<float>();

    const int64_t rows = data_t.dim(0);
    const int64_t dim = data_t.dim(1);
    const int64_t batch = len_t.numel();

    const std::vector<int64_t> offset_vec =
        segmentOffsets(slsKindInfo(kind_).prefix, name(), lengths, batch,
                       indices, idx_t.numel(), rows);
    const int64_t* offsets = offset_vec.data();
    // Each chunk owns a disjoint band of output rows and pools its
    // lookups in ascending order, one row visit over the band's
    // lookups with a segment cursor; rowAdd / rowAddScaled / rowScale
    // keep the per-element order on every ISA tier, so pooling is
    // bit-identical across tiers, widths and table backings.
    const KernelIsa isa = activeKernelIsa();
    parallelFor(0, batch, poolingGrain(dim, idx_t.numel(), batch),
                [&](int64_t lo, int64_t hi) {
        std::fill(y + lo * dim, y + hi * dim, 0.0f);
        int64_t seg = lo;  // the output row lookup p pools into
        visitRows(sref, data, dim, indices, offsets[lo], offsets[hi],
                  [&](int64_t p, const float* row) {
            while (p >= offsets[seg + 1]) {
                ++seg;  // past a finished or empty segment
            }
            float* yrow = y + seg * dim;
            if (w != nullptr) {
                kern::rowAddScaled(isa, yrow, row, w[p], dim);
            } else {
                kern::rowAdd(isa, yrow, row, dim);
            }
        });
        if (kind_ == SlsKind::kMean) {
            for (int64_t b = lo; b < hi; ++b) {
                if (lengths[b] > 0) {
                    kern::rowScale(isa, y + b * dim,
                                   1.0f / static_cast<float>(lengths[b]),
                                   dim);
                }
            }
        }
    });
}

KernelProfile
SparseLengthsReduceOp::profile(const Workspace& ws) const
{
    const SlsKindInfo& info = slsKindInfo(kind_);
    const Tensor& data = in(ws, 0);
    const Tensor& out_t = outConst(ws, 0);
    const uint64_t lookups =
        static_cast<uint64_t>(in(ws, inputs().size() - 2).numel());
    const uint64_t dim = static_cast<uint64_t>(data.dim(1));

    KernelProfile kp = baseProfile();
    kp.vecElemOps = info.vecElemOps * lookups * dim;
    if (kind_ == SlsKind::kMean) {
        kp.vecElemOps += static_cast<uint64_t>(out_t.numel());  // divide
    }
    kp.fmaFlops = info.fmaFlops * lookups * dim;
    kp.scalarOps = info.scalarOps * lookups;

    for (size_t i = 1; i < inputs().size(); ++i) {
        addSeqStream(kp, inputs()[i], in(ws, i), false);
    }
    addTableStreams(kp, ws, inputs()[0], data, lookups, zipfExponent_);
    addSeqStream(kp, outputs()[0], out_t, true);

    // Per-lookup segment/bounds branches: trip counts and row targets
    // are data dependent, which is the bad-speculation source the
    // paper attributes to RM1/RM2.
    BranchStream seg;
    seg.count = 3 * lookups + static_cast<uint64_t>(out_t.dim(0));
    seg.takenProbability = 0.85;
    seg.randomness = 0.75;
    kp.branches.push_back(seg);

    kp.codeFootprintBytes = opcost::kSlsCodeBytes;
    kp.codeRegion = "kernel:" + std::string(info.opType);
    kp.codeIterations = std::max<uint64_t>(1, lookups);
    return kp;
}

GatherOp::GatherOp(std::string name, std::string data, std::string indices,
                   std::string out, double zipf_exponent)
    : Operator("Gather", std::move(name),
               {std::move(data), std::move(indices)}, {std::move(out)}),
      zipfExponent_(zipf_exponent)
{
}

void
GatherOp::inferShapes(Workspace& ws)
{
    const Tensor& data = in(ws, 0);
    const Tensor& indices = in(ws, 1);
    RECSTACK_CHECK(data.rank() == 2, "Gather '" << name()
                   << "': data must be 2-D");
    RECSTACK_CHECK(indices.dtype() == DType::kInt64,
                   "Gather '" << name() << "': indices must be int64");
    ws.ensure(outputs()[0], {indices.numel(), data.dim(1)});
}

void
GatherOp::run(Workspace& ws)
{
    const Tensor& data_t = in(ws, 0);
    const Tensor& idx_t = in(ws, 1);
    Tensor& out_t = out(ws, 0);

    const StoreRef sref = storeRef(ws, inputs()[0], data_t);
    const float* data =
        sref.store != nullptr ? nullptr : data_t.data<float>();
    const int64_t* indices = idx_t.data<int64_t>();
    float* y = out_t.data<float>();
    const int64_t dim = data_t.dim(1);
    const int64_t rows = data_t.dim(0);
    const int64_t lookups = idx_t.numel();

    // Serial prevalidation (panics stay off the pool), then each
    // chunk copies a disjoint band of output rows.
    checkIndexRange("Gather", name(), indices, lookups, rows);
    const KernelIsa isa = activeKernelIsa();
    parallelFor(0, lookups, grainForCost(static_cast<uint64_t>(dim)),
                [=](int64_t lo, int64_t hi) {
        visitRows(sref, data, dim, indices, lo, hi,
                  [&](int64_t i, const float* row) {
            kern::rowCopy(isa, y + i * dim, row, dim);
        });
    });
}

KernelProfile
GatherOp::profile(const Workspace& ws) const
{
    const Tensor& data = in(ws, 0);
    const Tensor& indices = in(ws, 1);
    const Tensor& out_t = outConst(ws, 0);
    const uint64_t lookups = static_cast<uint64_t>(indices.numel());
    const uint64_t dim = static_cast<uint64_t>(data.dim(1));

    KernelProfile kp = baseProfile();
    kp.vecElemOps = lookups * dim;  // copies
    kp.scalarOps = lookups * 6;
    addSeqStream(kp, inputs()[1], indices, false);
    addTableStreams(kp, ws, inputs()[0], data, lookups, zipfExponent_);
    addSeqStream(kp, outputs()[0], out_t, true);

    BranchStream seg;
    seg.count = lookups;
    seg.takenProbability = 0.9;
    seg.randomness = 0.4;
    kp.branches.push_back(seg);

    kp.codeFootprintBytes = opcost::kSlsCodeBytes;
    kp.codeRegion = "kernel:Gather";
    kp.codeIterations = std::max<uint64_t>(1, lookups);
    return kp;
}

ReduceSumOp::ReduceSumOp(std::string name, std::string x, std::string y)
    : Operator("ReduceSum", std::move(name), {std::move(x)},
               {std::move(y)})
{
}

void
ReduceSumOp::inferShapes(Workspace& ws)
{
    const Tensor& x = in(ws, 0);
    RECSTACK_CHECK(x.rank() == 3, "ReduceSum '" << name()
                   << "': input must be 3-D [B, P, D]");
    ws.ensure(outputs()[0], {x.dim(0), x.dim(2)});
}

void
ReduceSumOp::run(Workspace& ws)
{
    const Tensor& xt = in(ws, 0);
    Tensor& yt = out(ws, 0);
    const float* x = xt.data<float>();
    float* y = yt.data<float>();
    const int64_t batch = xt.dim(0);
    const int64_t pool = xt.dim(1);
    const int64_t dim = xt.dim(2);
    // Per-sample reductions are independent; chunks own disjoint
    // output rows and keep the serial p-ascending accumulation order
    // (rowAdd preserves it per element on every tier).
    const KernelIsa isa = activeKernelIsa();
    parallelFor(0, batch,
                grainForCost(static_cast<uint64_t>(pool * dim)),
                [=](int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
            float* yrow = y + b * dim;
            for (int64_t d = 0; d < dim; ++d) {
                yrow[d] = 0.0f;
            }
            for (int64_t p = 0; p < pool; ++p) {
                kern::rowAdd(isa, yrow, x + (b * pool + p) * dim, dim);
            }
        }
    });
}

KernelProfile
ReduceSumOp::profile(const Workspace& ws) const
{
    const Tensor& x = in(ws, 0);
    KernelProfile kp = baseProfile();
    const uint64_t n = static_cast<uint64_t>(x.numel());
    kp.vecElemOps = n;
    kp.scalarOps = static_cast<uint64_t>(x.dim(0)) * 4;
    addSeqStream(kp, inputs()[0], x, false);
    addSeqStream(kp, outputs()[0], outConst(ws, 0), true);
    BranchStream loops;
    loops.count = std::max<uint64_t>(
        1, static_cast<uint64_t>(x.dim(0) * x.dim(1)));
    loops.takenProbability = 0.95;
    loops.randomness = 0.05;
    loops.scalesWithSimd = true;
    kp.branches.push_back(loops);
    kp.codeFootprintBytes = opcost::kEltwiseCodeBytes;
    kp.codeRegion = "kernel:ReduceSum";
    kp.codeIterations = std::max<uint64_t>(1, n / 16);
    return kp;
}

OperatorPtr
makeSparseLengthsReduce(SlsKind kind, std::string name, std::string data,
                        std::string weights, std::string indices,
                        std::string lengths, std::string out,
                        double zipf_exponent)
{
    return std::make_unique<SparseLengthsReduceOp>(
        kind, std::move(name), std::move(data), std::move(weights),
        std::move(indices), std::move(lengths), std::move(out),
        zipf_exponent);
}

OperatorPtr
makeGather(std::string name, std::string data, std::string indices,
           std::string out, double zipf_exponent)
{
    return std::make_unique<GatherOp>(std::move(name), std::move(data),
                                      std::move(indices), std::move(out),
                                      zipf_exponent);
}

OperatorPtr
makeReduceSum(std::string name, std::string x, std::string y)
{
    return std::make_unique<ReduceSumOp>(std::move(name), std::move(x),
                                         std::move(y));
}

}  // namespace recstack
