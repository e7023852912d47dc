#ifndef RECSTACK_PIM_PIM_MODEL_H_
#define RECSTACK_PIM_PIM_MODEL_H_

/**
 * @file
 * Analytical UPMEM-style processing-in-memory model: the third
 * platform next to the CPU microarchitecture simulator (src/uarch/)
 * and the GPU roofline model (src/gpu/).
 *
 * The paper's central finding is that recommendation inference is
 * dominated by irregular, memory-bound SparseLengthsSum traffic —
 * random row gathers whose arithmetic is one add per element. A PIM
 * platform attacks exactly that term: embedding tables are
 * row-partitioned across N DPU ranks (the same modulo shard map the
 * embedding store uses, EmbeddingStore::rowShard, so the Zipf heads
 * of co-stored tables decorrelate across ranks), the pooling executes
 * next to the rows at aggregate internal MRAM bandwidth, and only the
 * int64 indices go up / pooled fp32 vectors come back over the narrow
 * host<->DPU transfer path. Everything else (FC stacks, GRU steps,
 * feature concat, data loading) still runs on the host CPU model —
 * which is why the platform wins on SLS-dominated models (RM1, RM2)
 * and merely adds transfer overhead on FC/GRU-dominated ones (WnD,
 * DIEN).
 *
 * Per offloaded kernel, from its platform-independent KernelProfile:
 *
 *   upload   = xferLatency + indexBytes / xferBW        (0 if no bytes)
 *   dpu      = tableBytes * imbalance /
 *              (ranks * rankBW * taskletFill)
 *   download = xferLatency + outputBytes / xferBW       (0 if no bytes)
 *   total    = hostDispatch + upload + dpu + download
 *
 * where taskletFill = min(1, activeTasklets / pipelineFillTasklets)
 * and activeTasklets = min(taskletsPerDpu, wramBytesPerDpu/rowBytes):
 * the DPU's in-order pipeline needs ~11 resident tasklets to saturate
 * MRAM, and each active tasklet keeps its row buffer in the 64 KB
 * WRAM scratchpad (the working-set constraint). imbalance is the
 * slowest rank's share of the partitioned rows (max/mean over the
 * shard map). Throughput is therefore monotone in ranks and tasklets
 * and saturates at the host<->DPU transfer bound — the invariants
 * tests/test_pim.cc pins.
 *
 * The stream mapping is direct: an SLS profile's sequential read
 * streams are the index/length uploads, its random streams are the
 * in-memory table gathers, and its write stream is the pooled-result
 * download (src/ops/embedding.cc lowers them exactly so).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "profile/kernel_profile.h"

namespace recstack {

/**
 * Row partition of one table across the DPU ranks, by the store's
 * shard map. Exposed (rather than just its imbalance) so the
 * covers-every-row-exactly-once invariant is testable.
 */
struct PimPartition {
    int64_t rows = 0;
    std::vector<int64_t> rowsPerRank;

    /** Slowest rank's load relative to perfect balance (>= 1). */
    double imbalance() const;
};

/** Partition @c rows of table @c table across @c ranks ranks. */
PimPartition pimPartitionRows(int table, int64_t rows, int ranks);

/** Timing detail of one offloaded kernel. */
struct PimOpTime {
    std::string opType;
    std::string opName;
    double dispatchSeconds = 0.0;
    double uploadSeconds = 0.0;
    double dpuSeconds = 0.0;
    double downloadSeconds = 0.0;
    double seconds = 0.0;  ///< sum of the four phases

    uint64_t uploadBytes = 0;    ///< indices + lengths (+ weights)
    uint64_t tableBytes = 0;     ///< rows gathered inside the ranks
    uint64_t downloadBytes = 0;  ///< pooled outputs
    uint64_t lookups = 0;        ///< table-row touches
};

/** One net's offloaded share on the PIM platform. */
struct PimRunResult {
    double offloadSeconds = 0.0;  ///< sum over offloaded kernels
    double dispatchSeconds = 0.0;
    double uploadSeconds = 0.0;
    double dpuSeconds = 0.0;
    double downloadSeconds = 0.0;

    uint64_t offloadedOps = 0;
    uint64_t uploadBytes = 0;
    uint64_t tableBytes = 0;
    uint64_t downloadBytes = 0;
    uint64_t lookups = 0;

    std::vector<PimOpTime> opTimes;

    /** Host<->DPU transfer share of the offloaded time. */
    double transferFraction() const
    {
        return offloadSeconds > 0.0
                   ? (uploadSeconds + downloadSeconds) / offloadSeconds
                   : 0.0;
    }
};

/** Analytical DPU-rank cost model. */
class PimModel
{
  public:
    explicit PimModel(const PimConfig& cfg);

    /**
     * True when the kernel's operator family executes on the DPUs:
     * every kind of the SparseLengths pooling family
     * (isSparseLengthsReduce). Gathers without pooling return full
     * rows — the transfer path would carry the same bytes DRAM would
     * have, so they stay on the host.
     */
    static bool offloadable(const KernelProfile& kp);

    /** Time one offloadable kernel. */
    PimOpTime opTime(const KernelProfile& kp);

    /** Time a net's offloadable kernels (others are skipped). */
    PimRunResult simulateOffload(
        const std::vector<KernelProfile>& kernels);

    /**
     * The floor an infinite-rank configuration converges to for this
     * kernel: dispatch plus both transfers, with zero DPU time. The
     * saturation PAPER-CHECK measures against this bound.
     */
    double transferBoundSeconds(const KernelProfile& kp) const;

    const PimConfig& config() const { return cfg_; }

  private:
    /// Stable table id per stream region (encounter order), so the
    /// shard map decorrelates co-stored tables exactly like the
    /// embedding store does.
    int regionTableId(const std::string& region);
    double regionImbalance(const std::string& region, int64_t rows);

    PimConfig cfg_;
    std::map<std::string, int> regionIds_;
    std::map<std::string, double> imbalanceCache_;
};

/** Fold one PIM run into the pim.* obs counters/histograms. */
void exportPimStats(const PimRunResult& r);

}  // namespace recstack

#endif  // RECSTACK_PIM_PIM_MODEL_H_
