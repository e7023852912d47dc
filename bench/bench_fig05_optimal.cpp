/**
 * @file
 * Fig. 5: the optimal hardware platform per (model, batch size) cell,
 * annotated with its speedup over Broadwell.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 5", "Optimal platform per model/batch (speedup over BDW)");

    SweepCache sweep(allPlatforms());
    const auto batches = paperBatchSizes();

    std::vector<std::string> headers = {"model"};
    for (int64_t b : batches) {
        headers.push_back("b=" + std::to_string(b));
    }
    TextTable table(headers);
    for (ModelId id : allModels()) {
        std::vector<std::string> row = {modelName(id)};
        for (int64_t b : batches) {
            const size_t best = sweep.optimalPlatform(id, b);
            const double speedup = sweep.speedupOverBaseline(id, best, b);
            row.push_back(std::string(shortPlatformName(best)) + " " +
                          TextTable::fmtSpeedup(speedup));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(sweep.optimalPlatform(ModelId::kDIN, 16) == kBdw ||
              sweep.optimalPlatform(ModelId::kDIN, 16) == kClx,
          "DIN at small batch: a CPU is the optimal platform");
    check(sweep.optimalPlatform(ModelId::kRM3, 16384) == kGtx ||
              sweep.optimalPlatform(ModelId::kRM3, 16384) == kT4,
          "RM3 at large batch: a GPU is the optimal platform");
    bool rm_small_cpu = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        const size_t best = sweep.optimalPlatform(id, 4);
        rm_small_cpu &= (best == kBdw || best == kClx);
    }
    check(rm_small_cpu, "RM1/RM2 at small batch: CPUs are optimal "
                        "(irregular lookups do not pay for the GPU)");
    check(sweep.optimalPlatform(ModelId::kNCF, 16384) != kBdw &&
              sweep.optimalPlatform(ModelId::kNCF, 16384) != kClx,
          "NCF at large batch: GPUs take over");
    return recstack::bench::exitStatus();
}
