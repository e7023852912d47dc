#ifndef RECSTACK_OPS_EMBEDDING_H_
#define RECSTACK_OPS_EMBEDDING_H_

/**
 * @file
 * Embedding-table operators.
 *
 * SparseLengthsReduceOp is Caffe2's fused lookup+pool family, one op
 * parameterised by SlsKind: SparseLengthsSum (the dominant operator of
 * the embedding-heavy RM1/RM2 in the paper), SparseLengthsWeightedSum
 * and SparseLengthsMean. Each kind's type name, diagnostic prefix and
 * per-lookup costs come from the kind table kSlsKinds in
 * profile/kernel_profile.h. Gather and ReduceSum are the
 * TensorFlow-granularity equivalents (ResourceGather + Sum) used by
 * the framework adapter for the Fig. 7 comparison.
 */

#include "ops/operator.h"

namespace recstack {

/**
 * SparseLengthsReduce: the SparseLengths pooling family.
 *
 * Inputs:  data [R, D] float, weights [L] float (kWeightedSum only),
 *          indices [L] int64, lengths [B] int32 with
 *          sum(lengths) == L — Caffe2's input order.
 * Outputs: out [B, D] where out[b] pools the data rows selected by the
 *          b-th segment of indices: their sum, their weighted sum, or
 *          their mean (an empty segment stays zero).
 *
 * @param weights per-lookup weights blob of kWeightedSum; the other
 *        kinds ignore it (pass "").
 * @param zipf_exponent access skew the index stream is drawn with;
 *        forwarded to the memory stream so the cache model sees the
 *        same locality the numeric indices have.
 */
class SparseLengthsReduceOp : public Operator
{
  public:
    SparseLengthsReduceOp(SlsKind kind, std::string name, std::string data,
                          std::string weights, std::string indices,
                          std::string lengths, std::string out,
                          double zipf_exponent = 0.0);

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;

  private:
    SlsKind kind_;
    double zipfExponent_;
};

/**
 * Gather: out[i] = data[indices[i]] (TF ResourceGather granularity).
 *
 * Inputs:  data [R, D] float, indices [L] int64
 * Outputs: out [L, D]
 */
class GatherOp : public Operator
{
  public:
    GatherOp(std::string name, std::string data, std::string indices,
             std::string out, double zipf_exponent = 0.0);

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;

  private:
    double zipfExponent_;
};

/**
 * ReduceSum over axis 1 of a 3-D tensor: [B, P, D] -> [B, D].
 * The TF-granularity pooling half of SparseLengthsSum.
 */
class ReduceSumOp : public Operator
{
  public:
    ReduceSumOp(std::string name, std::string x, std::string y);

    void inferShapes(Workspace& ws) override;
    void run(Workspace& ws) override;
    KernelProfile profile(const Workspace& ws) const override;
};

OperatorPtr makeSparseLengthsReduce(SlsKind kind, std::string name,
                                    std::string data, std::string weights,
                                    std::string indices,
                                    std::string lengths, std::string out,
                                    double zipf_exponent = 0.0);
OperatorPtr makeGather(std::string name, std::string data,
                       std::string indices, std::string out,
                       double zipf_exponent = 0.0);
OperatorPtr makeReduceSum(std::string name, std::string x, std::string y);

}  // namespace recstack

#endif  // RECSTACK_OPS_EMBEDDING_H_
