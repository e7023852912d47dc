/**
 * @file
 * Fig. 10: backend drill-down — (top) the core:memory ratio of
 * backend-bound cycles on Broadwell vs Cascade Lake, and (bottom)
 * functional-unit usage (fraction of cycles with >= 3 of 8 execution
 * ports busy).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 10", "Core:Memory backend ratio + functional-unit usage");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    TextTable table({"model", "BDW core:mem", "CLX core:mem",
                     "BDW FU>=3", "CLX FU>=3", "BDW core-bound",
                     "CLX core-bound"});
    for (ModelId id : allModels()) {
        const auto& bdw = sweep.get(id, kBdw, batch).topdown;
        const auto& clx = sweep.get(id, kClx, batch).topdown;
        table.addRow({modelName(id),
                      TextTable::fmt(bdw.l2.coreToMemoryRatio(), 2),
                      TextTable::fmt(clx.l2.coreToMemoryRatio(), 2),
                      TextTable::fmtPercent(bdw.fuUsage3Plus),
                      TextTable::fmtPercent(clx.fuUsage3Plus),
                      TextTable::fmtPercent(bdw.l2.beCore),
                      TextTable::fmtPercent(clx.l2.beCore)});
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto ratio = [&](ModelId id, size_t p) {
        return sweep.get(id, p, batch).topdown.l2.coreToMemoryRatio();
    };
    bool core_bound_bdw = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        core_bound_bdw &= ratio(id, kBdw) > 1.0;
    }
    check(core_bound_bdw, "RM3/WnD/MT-WnD on BDW: core:memory ratio > 1 "
                          "(functional units are the backend bottleneck)");
    bool mem_shift_clx = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        mem_shift_clx &= ratio(id, kClx) < ratio(id, kBdw);
    }
    check(mem_shift_clx, "on CLX the backend bottleneck shifts toward "
                         "the memory subsystem (wider FMA hardware)");
    bool fu_pressure = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        fu_pressure &=
            sweep.get(id, kBdw, batch).topdown.fuUsage3Plus >
            sweep.get(ModelId::kRM1, kBdw, batch).topdown.fuUsage3Plus;
    }
    check(fu_pressure, "RM3/WnD/MT-WnD saturate Broadwell's execution "
                       "ports more than the embedding models");
    bool clx_relief = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        clx_relief &= sweep.get(id, kClx, batch).topdown.l2.beCore <
                      0.6 * sweep.get(id, kBdw, batch).topdown.l2.beCore;
    }
    check(clx_relief, "Cascade Lake's wider FMA hardware decreases "
                      "functional-unit pressure (core-bound stalls "
                      "drop sharply)");
    return recstack::bench::exitStatus();
}
