/**
 * @file
 * Fig. 12: L1 instruction-cache misses per kilo-instruction. NCF and
 * the attention-based models (DIN, DIEN) stand out; DIN's unrolled
 * local activation units carry unique instruction reference
 * locations.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 12", "L1 i-cache MPKI (batch 16, Broadwell)");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    std::vector<ChartItem> items;
    for (ModelId id : allModels()) {
        items.push_back(
            {modelName(id),
             sweep.get(id, kBdw, batch).topdown.imspki});
    }
    std::printf("%s", barChart(items, 40, " MPKI").c_str());

    checkHeader();
    auto mpki = [&](ModelId id) {
        return sweep.get(id, kBdw, batch).topdown.imspki;
    };
    const double rm_avg = (mpki(ModelId::kRM1) + mpki(ModelId::kRM2) +
                           mpki(ModelId::kRM3)) / 3.0;
    check(mpki(ModelId::kDIN) > 2.0 * rm_avg,
          "DIN: far higher i-MPKI than the RM models (paper: 12.4)");
    check(mpki(ModelId::kDIEN) > rm_avg &&
              mpki(ModelId::kDIEN) < mpki(ModelId::kDIN),
          "DIEN: elevated but below DIN (paper: 7.7) - GRU math is "
          "more cache friendly than per-lookup concat+FC");
    check(mpki(ModelId::kNCF) > rm_avg,
          "NCF: small-FC model also suffers i-cache pressure");
    check(mpki(ModelId::kRM2) < mpki(ModelId::kNCF),
          "long runs of identical SparseLengthsSum ops keep RM2's "
          "instruction working set hot");
    return recstack::bench::exitStatus();
}
