/**
 * @file
 * Fig. 13: frontend decoder-pipeline inefficiencies — fraction of
 * cycles in which the DSB (decoded-uop cache) or the MITE legacy
 * decoder limited micro-op supply. The embedding-heavy RM1/RM2 are
 * DSB-limited (mispredict flushes + instruction footprints thrash
 * the DSB).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 13", "Cycles limited by DSB vs MITE (batch 16)");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    TextTable table({"model", "BDW DSB-limited", "BDW MITE-limited",
                     "CLX DSB-limited", "CLX MITE-limited"});
    for (ModelId id : allModels()) {
        const auto& bdw = sweep.get(id, kBdw, batch).topdown.l2;
        const auto& clx = sweep.get(id, kClx, batch).topdown.l2;
        table.addRow({modelName(id),
                      TextTable::fmtPercent(bdw.feBandwidthDsb),
                      TextTable::fmtPercent(bdw.feBandwidthMite),
                      TextTable::fmtPercent(clx.feBandwidthDsb),
                      TextTable::fmtPercent(clx.feBandwidthMite)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto dsb = [&](ModelId id) {
        return sweep.get(id, kBdw, batch).topdown.l2.feBandwidthDsb;
    };
    check(dsb(ModelId::kRM1) > dsb(ModelId::kRM3) &&
              dsb(ModelId::kRM2) > dsb(ModelId::kRM3),
          "RM1/RM2 (frontend-bandwidth-bound models): DSB is a larger "
          "limiter than for the FC-heavy RM3");
    bool dsb_main = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        const auto& l2 = sweep.get(id, kBdw, batch).topdown.l2;
        dsb_main &= l2.feBandwidthDsb > l2.feBandwidthMite * 0.5;
    }
    check(dsb_main, "for RM1/RM2 the DSB component is the main decoder "
                    "inefficiency (not steady-state MITE)");
    bool clx_less = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        clx_less &=
            sweep.get(id, kClx, batch).topdown.l2.feBandwidthDsb <
            sweep.get(id, kBdw, batch).topdown.l2.feBandwidthDsb;
    }
    check(clx_less, "Cascade Lake's better speculation reduces "
                    "DSB-limited cycles for RM1/RM2");
    return recstack::bench::exitStatus();
}
