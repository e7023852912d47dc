/**
 * @file
 * Fig. 3: systems performance evaluation — speedup over the Broadwell
 * CPU for Cascade Lake, GTX 1080 Ti and T4, across the eight models
 * and batch sizes 1..16384. Extended with the near-memory PIM
 * platform (src/pim/) as a fifth column: embedding pooling offloaded
 * to DPU ranks, everything else on the Broadwell host.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 3", "Speedup over Broadwell across models/batch sizes");

    SweepCache sweep(allPlatformsWithPim());
    const auto batches = paperBatchSizes();

    for (ModelId id : allModels()) {
        std::printf("\n--- %s ---\n", modelName(id));
        TextTable table(
            {"batch", "BDW latency", "CLX", "1080Ti", "T4", "PIM"});
        for (int64_t batch : batches) {
            table.addRow(
                {std::to_string(batch),
                 TextTable::fmtSeconds(sweep.get(id, kBdw, batch).seconds),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, kClx, batch)),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, kGtx, batch)),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, kT4, batch)),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, kPim, batch))});
        }
        std::printf("%s", table.render().c_str());
    }

    checkHeader();
    // 1) FC-heavy models: order-of-magnitude GPU speedup at large
    //    batch, 2-4x at small batch.
    bool fc_large = true, fc_small = true;
    for (ModelId id : {ModelId::kNCF, ModelId::kRM3, ModelId::kWnD,
                       ModelId::kMTWnD}) {
        const double large = sweep.speedupOverBaseline(id, kT4, 16384);
        const double small = sweep.speedupOverBaseline(id, kGtx, 64);
        fc_large &= large >= 8.0;
        fc_small &= small >= 0.5 && small <= 8.0;
    }
    check(fc_large, "FC-heavy models (NCF/RM3/WnD/MT-WnD): ~order of "
                    "magnitude GPU speedup at batch ~10^3+");
    check(fc_small, "FC-heavy models: modest (~2-4x) GPU speedup at "
                    "small batch");

    // 2) RM1/RM2: below 4x on GPUs; Cascade Lake beats the 1080 Ti at
    //    small batch and lands near the T4.
    bool rm_low = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        for (int64_t b : batches) {
            rm_low &= sweep.speedupOverBaseline(id, kGtx, b) < 4.5;
        }
    }
    check(rm_low, "RM1/RM2: GPU speedup stays low (< ~4x) at all "
                  "batch sizes");
    check(sweep.speedupOverBaseline(ModelId::kRM1, kClx, 16) >
              sweep.speedupOverBaseline(ModelId::kRM1, kGtx, 16) * 1.5,
          "RM1: Cascade Lake outperforms the 1080 Ti at small batch "
          "(by >= ~2x in the paper)");

    // 3) DIN: CPU wins below batch ~100; GPU saturates below ~4x.
    check(sweep.speedupOverBaseline(ModelId::kDIN, kGtx, 16) < 1.0 &&
              sweep.speedupOverBaseline(ModelId::kDIN, kGtx, 64) < 1.3,
          "DIN: Broadwell outperforms GPUs at batch < ~100");
    check(sweep.speedupOverBaseline(ModelId::kDIN, kGtx, 16384) < 6.0,
          "DIN: GPU speedup saturates at/below ~4x");

    // 4) DIEN: GPUs reach ~7x.
    const double dien_max =
        std::max(sweep.speedupOverBaseline(ModelId::kDIEN, kGtx, 16384),
                 sweep.speedupOverBaseline(ModelId::kDIEN, kT4, 16384));
    check(dien_max >= 5.0 && dien_max <= 11.0,
          "DIEN: GRU-based attention reaches ~7x on GPUs");

    // 5) Cascade Lake improves on Broadwell everywhere.
    bool clx_all = true;
    for (ModelId id : allModels()) {
        for (int64_t b : batches) {
            clx_all &= sweep.speedupOverBaseline(id, kClx, b) > 1.0;
        }
    }
    check(clx_all, "Cascade Lake outperforms Broadwell across all "
                   "models and batch sizes");

    // 6) T4 vs 1080 Ti: ahead at large batch for FC models.
    bool t4_large = true;
    for (ModelId id : {ModelId::kNCF, ModelId::kRM3, ModelId::kWnD,
                       ModelId::kMTWnD, ModelId::kDIEN}) {
        t4_large &= sweep.speedupOverBaseline(id, kT4, 16384) >
                    sweep.speedupOverBaseline(id, kGtx, 16384);
    }
    check(t4_large, "T4 overtakes the 1080 Ti at batch > ~10^3 for "
                    "NCF/RM3/WnD/MT-WnD/DIEN");

    // 7) PIM column (extension, docs/pim.md): near-memory offload
    //    tracks the SLS share. The embedding-dominated models gain
    //    multiples once the batch amortizes the host<->DPU transfer;
    //    the FC/GRU-dominated ones are bounded by their tiny SLS
    //    share (Amdahl) and see no end-to-end gain.
    bool pim_sls = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        pim_sls &= sweep.speedupOverBaseline(id, kPim, 4096) >= 2.0;
    }
    check(pim_sls, "PIM (ext): SLS-dominated RM1/RM2 gain >= 2x over "
                   "Broadwell at large batch");
    bool pim_fc = true;
    for (ModelId id : {ModelId::kNCF, ModelId::kWnD, ModelId::kMTWnD,
                       ModelId::kDIEN}) {
        for (int64_t b : batches) {
            pim_fc &= sweep.speedupOverBaseline(id, kPim, b) <= 1.15;
        }
    }
    check(pim_fc, "PIM (ext): FC/GRU-dominated NCF/WnD/MT-WnD/DIEN see "
                  "no end-to-end gain at any batch");
    return recstack::bench::exitStatus();
}
