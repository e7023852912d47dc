/**
 * @file
 * Fig. 6: Caffe2 operator-usage breakdowns per model across four
 * batch sizes on the two CPUs and two GPUs.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 6", "Operator breakdowns (CPUs left, GPUs right)");

    SweepCache sweep(allPlatforms());
    const auto batches = breakdownBatchSizes();

    for (ModelId id : allModels()) {
        std::printf("\n--- %s ---\n", modelName(id));
        for (size_t p : {kBdw, kClx, kGtx, kT4}) {
            for (int64_t b : batches) {
                const RunResult& r = sweep.get(id, p, b);
                std::vector<ChartItem> segs;
                double other = 0.0;
                for (const auto& [type, frac] : r.breakdown.fractions()) {
                    if (segs.size() < 4 && frac >= 0.03) {
                        segs.push_back({type, frac});
                    } else {
                        other += frac;
                    }
                }
                if (other > 0.0) {
                    segs.push_back({"other", other});
                }
                char label[64];
                std::snprintf(label, sizeof(label), "%-12s b=%-6lld",
                              shortPlatformName(p),
                              static_cast<long long>(b));
                std::printf("%s", stackedBar(label, segs, 40).c_str());
            }
        }
    }

    checkHeader();
    // GPU-accelerated models are FC-dominated on CPU.
    bool fc_dom = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        fc_dom &= sweep.get(id, kBdw, 64).breakdown.dominantType() == "FC";
    }
    check(fc_dom, "RM3/WnD/MT-WnD: FC dominates CPU runtime");
    check(sweep.get(ModelId::kRM2, kBdw, 64).breakdown.dominantType() ==
              "SparseLengthsSum",
          "RM2: SparseLengthsSum dominates CPU runtime");

    // RM1: batch size shifts the dominant operator FC -> SLS.
    const auto& rm1_small = sweep.get(ModelId::kRM1, kBdw, 4).breakdown;
    const auto& rm1_large = sweep.get(ModelId::kRM1, kBdw, 64).breakdown;
    check(rm1_small.fraction("SparseLengthsSum") <
                  rm1_large.fraction("SparseLengthsSum") &&
              rm1_large.dominantType() == "SparseLengthsSum",
          "RM1: growing batch 4 -> 64 shifts the bottleneck toward "
          "SparseLengthsSum");

    // WnD on GPU at small batch: SLS-dominated despite being FC-heavy
    // on CPU.
    check(sweep.get(ModelId::kWnD, kGtx, 4).breakdown.dominantType() !=
              "FC",
          "WnD: FC-heavy on CPU but not FC-dominated on GPU at small "
          "batch");

    // Breakdown fractions sum to ~1.
    double sum = 0.0;
    for (const auto& [type, frac] :
         sweep.get(ModelId::kRM2, kBdw, 64).breakdown.fractions()) {
        sum += frac;
    }
    check(sum > 0.999 && sum < 1.001, "breakdown fractions sum to 1");
    return recstack::bench::exitStatus();
}
