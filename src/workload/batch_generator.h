#ifndef RECSTACK_WORKLOAD_BATCH_GENERATOR_H_
#define RECSTACK_WORKLOAD_BATCH_GENERATOR_H_

/**
 * @file
 * Inference input synthesis.
 *
 * The paper's study uses untrained models and synthetic inference
 * inputs (only compute matters, not accuracy), with batch sizes from
 * 1 to 16384. BatchGenerator materializes per-batch inputs for a
 * model's declared feature schema and accounts the data-loading work
 * that the paper's end-to-end timings include.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ops/workspace.h"
#include "profile/kernel_profile.h"

namespace recstack {

/**
 * Open-loop Poisson arrival clock: successive calls to next() return
 * the absolute timestamps of a Poisson process with the given mean
 * rate. Deterministic given the seed, so the analytical serving
 * simulator and the threaded serving engine can replay bit-identical
 * query streams (the load DeepRecSys-style query generators emit).
 */
class PoissonProcess
{
  public:
    /**
     * @param rate_qps mean arrivals per second (> 0)
     * @param seed     RNG seed; same seed => same timestamp stream
     */
    PoissonProcess(double rate_qps, uint64_t seed);

    /** Timestamp of the next arrival (strictly increasing). */
    double next();

    double rate() const { return rate_; }

  private:
    double rate_;
    Rng rng_;
    double now_ = 0.0;
};

/** One sparse (embedding) input feature group. */
struct CategoricalFeatureSpec {
    std::string indicesBlob;       ///< int64 [batch * lookups]
    std::string lengthsBlob;       ///< int32 [batch]
    int64_t tableRows = 0;         ///< index domain
    int64_t lookupsPerSample = 1;  ///< pooling factor
    double zipfExponent = 0.0;     ///< index skew
    /// Optional per-lookup weights blob (position-weighted pooling,
    /// SparseLengthsWeightedSum); empty when unweighted.
    std::string weightsBlob;
};

/** One dense input feature group. */
struct ContinuousFeatureSpec {
    std::string blob;              ///< float [batch, dim]
    int64_t dim = 0;
};

/** Full input schema of a model. */
struct WorkloadSpec {
    std::vector<CategoricalFeatureSpec> categorical;
    std::vector<ContinuousFeatureSpec> continuous;
};

/**
 * Materializes inference batches for a WorkloadSpec and prices the
 * data-loading step.
 */
class BatchGenerator
{
  public:
    BatchGenerator(WorkloadSpec spec, uint64_t seed = 42);

    /**
     * Create/fill all input blobs for the given batch size. The blobs
     * are a pure function of (spec, seed, batch): every call reseeds
     * from seed ^ batch * 0x9e3779b9, so two calls at one batch size
     * write identical inputs (BatchGenerator.DeterministicPerSeedAndBatch).
     * A serving worker therefore sends the same inputs in every batch
     * of one size.
     */
    void materialize(Workspace& ws, int64_t batch) const;

    /** Create all input blobs as shape-only (profile-only sweeps). */
    void declare(Workspace& ws, int64_t batch) const;

    /**
     * Abstract cost of loading one batch from the serving wire format
     * into framework tensors (deserialize + copy); the paper includes
     * this in end-to-end inference time.
     */
    KernelProfile dataLoadProfile(int64_t batch) const;

    /** Bytes a batch occupies on the wire (PCIe transfer size). */
    uint64_t inputBytes(int64_t batch) const;

    const WorkloadSpec& spec() const { return spec_; }

  private:
    WorkloadSpec spec_;
    uint64_t seed_;
    std::vector<ZipfSampler> zipf_;  ///< one per spec_.categorical entry
};

}  // namespace recstack

#endif  // RECSTACK_WORKLOAD_BATCH_GENERATOR_H_
