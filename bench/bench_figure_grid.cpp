/**
 * @file
 * Figs. 3, 5, 6, 14 and 16 and the PIM extension: six views of one
 * model x platform x batch sweep. The grid (the eight models x
 * allPlatformsWithPim() x paperBatchSizes()) is filled once on the
 * intra-op pool (SweepCache::fill); each section below then prints
 * its figure's tables and PAPER-CHECK claims from it.
 */

#include "bench_util.h"
#include "pim/pim_model.h"

using namespace recstack;
using namespace recstack::bench;

namespace {

/**
 * Fig. 3: systems performance evaluation — speedup over the Broadwell
 * CPU for Cascade Lake, GTX 1080 Ti and T4, across the eight models
 * and batch sizes 1..16384. Extended with the near-memory PIM
 * platform (src/pim/) as a fifth column: embedding pooling offloaded
 * to DPU ranks, everything else on the Broadwell host.
 */
void
fig03Speedup(SweepCache& sweep)
{
    banner("Fig. 3", "Speedup over Broadwell across models/batch sizes");

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
}

/**
 * Fig. 5: the optimal hardware platform per (model, batch size) cell,
 * annotated with its speedup over Broadwell. The paper's four
 * platforms only: PIM is an extension and takes no cell.
 */
void
fig05Optimal(SweepCache& sweep)
{
    banner("Fig. 5", "Optimal platform per model/batch (speedup over BDW)");

    const auto batches = paperBatchSizes();
    auto optimal = [&](ModelId id, int64_t batch) {
        size_t best = kBdw;
        for (size_t p = kClx; p <= kT4; ++p) {
            if (sweep.get(id, p, batch).seconds <
                sweep.get(id, best, batch).seconds) {
                best = p;
            }
        }
        return best;
    };

    std::vector<std::string> headers = {"model"};
    for (int64_t b : batches) {
        headers.push_back("b=" + std::to_string(b));
    }
    TextTable table(headers);
    for (ModelId id : allModels()) {
        std::vector<std::string> row = {modelName(id)};
        for (int64_t b : batches) {
            const size_t best = optimal(id, b);
            const double speedup = sweep.speedupOverBaseline(id, best, b);
            row.push_back(std::string(shortPlatformName(best)) + " " +
                          TextTable::fmtSpeedup(speedup));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(optimal(ModelId::kDIN, 16) == kBdw ||
              optimal(ModelId::kDIN, 16) == kClx,
          "DIN at small batch: a CPU is the optimal platform");
    check(optimal(ModelId::kRM3, 16384) == kGtx ||
              optimal(ModelId::kRM3, 16384) == kT4,
          "RM3 at large batch: a GPU is the optimal platform");
    bool rm_small_cpu = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        const size_t best = optimal(id, 4);
        rm_small_cpu &= (best == kBdw || best == kClx);
    }
    check(rm_small_cpu, "RM1/RM2 at small batch: CPUs are optimal "
                        "(irregular lookups do not pay for the GPU)");
    check(optimal(ModelId::kNCF, 16384) != kBdw &&
              optimal(ModelId::kNCF, 16384) != kClx,
          "NCF at large batch: GPUs take over");
}

/**
 * Fig. 6: Caffe2 operator-usage breakdowns per model across four
 * batch sizes on the two CPUs and two GPUs.
 */
void
fig06OpBreakdown(SweepCache& sweep)
{
    banner("Fig. 6", "Operator breakdowns (CPUs left, GPUs right)");

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
}

/**
 * Fig. 14: DRAM bandwidth congestion (Intel criterion: demand above
 * 70% of what the memory controller can serve). RM2's 32 tables x
 * 120 lookups make it the congested outlier.
 */
void
fig14DramBw(SweepCache& sweep)
{
    banner("Fig. 14", "DRAM bandwidth congestion (Broadwell)");

    TextTable table({"model", "batch", "DRAM demand GB/s",
                     "congested cycles", "BW-stall share"});
    const DramModel dram(broadwellConfig().dramGBs,
                         broadwellConfig().dramLatencyCycles,
                         broadwellConfig().freqGHz);
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2, ModelId::kDIN,
                       ModelId::kDIEN}) {
        for (int64_t batch : {64LL, 1024LL, 4096LL}) {
            const RunResult& r = sweep.get(id, kBdw, batch);
            const double demand =
                dram.demandGBs(r.counters.dramBytes, r.counters.cycles);
            table.addRow(
                {modelName(id), std::to_string(batch),
                 TextTable::fmt(demand, 1),
                 TextTable::fmtPercent(r.topdown.dramCongestedFraction),
                 TextTable::fmtPercent(r.topdown.l2.memDramBandwidth)});
        }
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto congestion = [&](ModelId id, int64_t b) {
        return sweep.get(id, kBdw, b).topdown.dramCongestedFraction;
    };
    check(congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kRM1, 4096),
          "RM2 suffers more DRAM bandwidth congestion than RM1 "
          "(32x120 vs 8x80 lookups)");
    check(congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kDIEN, 4096) &&
          congestion(ModelId::kRM2, 4096) >
              congestion(ModelId::kDIN, 4096),
          "RM2 is the congestion outlier among RM1/RM2/DIN/DIEN");
    check(congestion(ModelId::kRM2, 4096) >= congestion(ModelId::kRM2, 64),
          "congestion grows with batch size (more concurrent lookups)");
}

/**
 * Fig. 16: linear-regression modeling of algorithmic
 * model-architecture components against pipeline bottlenecks. Data
 * points are the 8 models x batch sizes 1..16384 on Broadwell;
 * features are normalized so weight magnitude reads as impact.
 */
void
fig16Regression(SweepCache& sweep)
{
    banner("Fig. 16", "Model-architecture features vs pipeline "
                      "bottlenecks (OLS)");

    const RegressionStudy study =
        runRegressionStudy(sweep, kBdw, paperBatchSizes());

    std::printf("observations: %zu (8 models x %zu batch sizes)\n\n",
                study.observations, paperBatchSizes().size());

    std::vector<std::string> headers = {"feature"};
    for (const auto& target : study.targetNames) {
        headers.push_back(target);
    }
    TextTable table(headers);
    for (size_t f = 0; f < study.featureNames.size(); ++f) {
        std::vector<std::string> row = {study.featureNames[f]};
        for (const auto& fit : study.fits) {
            row.push_back(TextTable::fmt(fit.weights[f], 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> r2_row = {"(R^2)"};
    for (const auto& fit : study.fits) {
        r2_row.push_back(TextTable::fmt(fit.r2, 2));
    }
    table.addRow(r2_row);
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto weight = [&](size_t target, const char* feature) {
        for (size_t f = 0; f < study.featureNames.size(); ++f) {
            if (study.featureNames[f] == feature) {
                return study.fits[target].weights[f];
            }
        }
        RECSTACK_FATAL("unknown feature " << feature);
    };
    // Target order: 0 retiring, 1 badspec, 2 frontend, 3 core, 4 mem.
    check(weight(1, "FCtoEmbRatio") < 0.0,
          "a high FC-to-embedding weight ratio correlates with LESS "
          "bad speculation (compute-heavy models have predictable "
          "branches)");

    // No bottleneck is explained by one dominant feature: the top
    // weight never carries more than ~2/3 of total magnitude.
    bool no_single = true;
    for (const auto& fit : study.fits) {
        double sum = 0.0, top = 0.0;
        for (double w : fit.weights) {
            sum += std::abs(w);
            top = std::max(top, std::abs(w));
        }
        no_single &= sum == 0.0 || top / sum < 0.67;
    }
    check(no_single, "no pipeline bottleneck is dominated by a single "
                     "algorithmic feature (the paper's headline "
                     "observation)");
    check(weight(4, "LookupsPerTable") > 0.0,
          "more lookups per table pushes the backend toward memory");
}

/** CPU seconds the SLS-family ops take in a run's breakdown. */
double
slsSeconds(const RunResult& r)
{
    double s = 0.0;
    for (const auto& [type, seconds] : r.breakdown.byType()) {
        if (isSparseLengthsReduce(type)) {
            s += seconds;
        }
    }
    return s;
}

/**
 * Extension: near-memory (PIM) embedding offload — rank-count and
 * tasklet sweeps over the analytical UPMEM-style platform
 * (src/pim/pim_model.h), plus the Fig. 3-style three-platform table
 * (Broadwell / T4 / PIM).
 *
 * The paper's cross-stack claim is that recommendation inference is
 * bottlenecked by irregular SparseLengthsSum traffic; near-memory
 * offload is the architectural answer the ROADMAP closes with. The
 * checks pin the qualitative shape that story must have:
 *
 *  - models whose CPU time is dominated by the SLS family (RM1, RM2)
 *    gain multiples end-to-end once the batch amortizes the host<->DPU
 *    transfer; FC/GRU-dominated models (WnD, DIEN) are Amdahl-bound by
 *    their tiny SLS share and see no gain;
 *  - the offloaded ops themselves always beat their CPU execution at
 *    large batch (even DIEN's small SLS share), while at batch 1 the
 *    per-op transfer latency makes PIM lose everywhere — which is why
 *    the serving engine routes by a batch-size threshold
 *    (docs/scheduling.md, docs/pim.md);
 *  - throughput is monotone in ranks and saturates at the host<->DPU
 *    transfer bound: past a few ranks the DPU term vanishes and more
 *    silicon buys nothing.
 */
void
extPim(SweepCache& sweep)
{
    banner("Extension: PIM offload",
           "Near-memory embedding offload: rank/tasklet sweeps and the "
           "three-platform comparison");

    const std::vector<ModelId> models = {ModelId::kRM1, ModelId::kRM2,
                                         ModelId::kWnD, ModelId::kDIEN};
    const int64_t big_batch = 4096;
    const PimConfig base = upmemPimConfig();

    struct ModelRow {
        ModelId id;
        const RunResult& cpu;
        const RunResult& pim;
        double hostSeconds = 0.0;  ///< PIM total minus offload
        std::vector<KernelProfile> offload;
    };
    std::vector<ModelRow> rows;
    for (ModelId id : models) {
        const RunResult& pim = sweep.get(id, kPim, big_batch);
        ModelRow row{id, sweep.get(id, kBdw, big_batch), pim,
                     pim.seconds - pim.pim.offloadSeconds, {}};
        for (const KernelProfile& kp :
             sweep.characterizer().profiles(id, big_batch)) {
            if (PimModel::offloadable(kp)) {
                row.offload.push_back(kp);
            }
        }
        rows.push_back(std::move(row));
    }

    std::printf("\n--- three platforms at batch %lld ---\n",
                static_cast<long long>(big_batch));
    TextTable table({"model", "CPU SLS share", "BDW", "T4", "PIM",
                     "PIM speedup"});
    for (const ModelRow& row : rows) {
        table.addRow(
            {modelName(row.id),
             TextTable::fmtPercent(slsSeconds(row.cpu) /
                                   row.cpu.seconds),
             TextTable::fmtSeconds(row.cpu.seconds),
             TextTable::fmtSeconds(
                 sweep.get(row.id, kT4, big_batch).seconds),
             TextTable::fmtSeconds(row.pim.seconds),
             TextTable::fmtSpeedup(row.cpu.seconds /
                                   row.pim.seconds)});
    }
    std::printf("%s", table.render().c_str());

    // Rank sweep: re-price only the analytical offload (the host share
    // does not depend on the rank count).
    const std::vector<int> rank_points = {1, 2, 4, 8, 16, 32, 64, 128};
    std::printf("\n--- rank sweep, end-to-end speedup vs Broadwell "
                "(batch %lld) ---\n",
                static_cast<long long>(big_batch));
    std::vector<std::string> rank_header = {"model"};
    for (int ranks : rank_points) {
        rank_header.push_back("r" + std::to_string(ranks));
    }
    TextTable rank_table(rank_header);
    // speedups[model][rank point]
    std::vector<std::vector<double>> speedups;
    for (const ModelRow& row : rows) {
        std::vector<std::string> cells = {modelName(row.id)};
        std::vector<double> s;
        for (int ranks : rank_points) {
            PimConfig cfg = base;
            cfg.ranks = ranks;
            PimModel m(cfg);
            const double total =
                row.hostSeconds +
                m.simulateOffload(row.offload).offloadSeconds;
            s.push_back(row.cpu.seconds / total);
            cells.push_back(TextTable::fmtSpeedup(s.back()));
        }
        speedups.push_back(std::move(s));
        rank_table.addRow(cells);
    }
    std::printf("%s", rank_table.render().c_str());

    // Tasklet sweep at the base rank count.
    const std::vector<int> tasklet_points = {1, 2, 4, 8, 11, 16, 24};
    std::printf("\n--- tasklet sweep, offload seconds (batch %lld, "
                "%d ranks) ---\n",
                static_cast<long long>(big_batch), base.ranks);
    std::vector<std::string> t_header = {"model"};
    for (int t : tasklet_points) {
        t_header.push_back("t" + std::to_string(t));
    }
    TextTable t_table(t_header);
    bool tasklet_monotone = true;
    for (const ModelRow& row : rows) {
        std::vector<std::string> cells = {modelName(row.id)};
        double prev = -1.0;
        for (int t : tasklet_points) {
            PimConfig cfg = base;
            cfg.taskletsPerDpu = t;
            PimModel m(cfg);
            const double off =
                m.simulateOffload(row.offload).offloadSeconds;
            if (prev >= 0.0 && off > prev * (1.0 + 1e-9)) {
                tasklet_monotone = false;
            }
            prev = off;
            cells.push_back(TextTable::fmtSeconds(off));
        }
        t_table.addRow(cells);
    }
    std::printf("%s", t_table.render().c_str());

    checkHeader();
    // 1) SLS-dominated models gain; the gain tracks the SLS share.
    bool sls_gain = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        const ModelRow& row = rows[i];
        if (slsSeconds(row.cpu) / row.cpu.seconds > 0.5) {
            sls_gain &= row.cpu.seconds / row.pim.seconds >= 2.0;
        }
    }
    check(sls_gain, "SLS-dominated models (RM1/RM2: CPU SLS share > "
                    "50%) gain >= 2x end-to-end at large batch");

    // 2) FC/GRU-dominated models see no end-to-end gain.
    bool fc_flat = true;
    for (const ModelRow& row : rows) {
        if (slsSeconds(row.cpu) / row.cpu.seconds < 0.15) {
            fc_flat &= row.cpu.seconds / row.pim.seconds <= 1.15;
        }
    }
    check(fc_flat, "FC/GRU-dominated models (WnD/DIEN: CPU SLS share < "
                   "15%) see <= 1.15x — Amdahl-bound by the share");

    // 3) Per-op gain tracks the pooling factor (table bytes gathered
    //    per pooled byte returned). Heavy pooling (RM1: 80 lookups
    //    per output row, RM2: 120) compresses the download and the
    //    DPUs win by an order of magnitude; factor-~1 ops (WnD's
    //    one-lookup tables, DIEN) must ship the same bytes over the
    //    narrow host<->DPU link that the CPU reads from DRAM, so the
    //    download bound erases the advantage.
    bool pooled_gain = true;
    bool unpooled_flat = true;
    for (const ModelRow& row : rows) {
        const double factor =
            row.pim.pim.downloadBytes > 0
                ? static_cast<double>(row.pim.pim.tableBytes) /
                      static_cast<double>(row.pim.pim.downloadBytes)
                : 1.0;
        if (factor >= 5.0) {
            pooled_gain &= row.pim.pim.offloadSeconds <
                           slsSeconds(row.cpu) / 5.0;
        } else {
            unpooled_flat &= row.pim.pim.offloadSeconds >
                             slsSeconds(row.cpu) * 0.75;
        }
    }
    check(pooled_gain, "heavily pooled SLS ops (RM1/RM2: >= 5 table "
                       "bytes per pooled byte) run >= 5x faster on "
                       "the DPU ranks than on the CPU");
    check(unpooled_flat, "pooling-factor-~1 ops (WnD/DIEN) stay "
                         "download-bound: near-memory execution buys "
                         "nothing when the result is as big as the "
                         "gather");

    // 4) At batch 1 the per-op transfer latency dominates: PIM loses
    //    everywhere, which is what the threshold routing exists for.
    bool b1_loses = true;
    for (const ModelRow& row : rows) {
        b1_loses &= sweep.get(row.id, kPim, 1).seconds >=
                    sweep.get(row.id, kBdw, 1).seconds * 0.99;
    }
    check(b1_loses, "at batch 1 the host<->DPU latency makes PIM no "
                    "better than the CPU on every model (threshold "
                    "routing keeps small batches on the host)");

    // 5) Monotone in ranks: more ranks never slow the offload.
    bool rank_monotone = true;
    for (const auto& s : speedups) {
        for (size_t i = 1; i < s.size(); ++i) {
            rank_monotone &= s[i] >= s[i - 1] * (1.0 - 1e-9);
        }
    }
    check(rank_monotone, "end-to-end speedup is monotone "
                         "nondecreasing in the rank count");

    // 6) Saturation at the transfer bound: the last rank doubling
    //    (64 -> 128) moves the SLS-heavy models' speedup by < 5%.
    bool saturates = true;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (slsSeconds(rows[i].cpu) / rows[i].cpu.seconds > 0.5) {
            const std::vector<double>& s = speedups[i];
            saturates &=
                s[s.size() - 1] <= s[s.size() - 2] * 1.05;
        }
    }
    // Cross-check against the analytical floor: the offload time at
    // 128 ranks is within 10% of dispatch + transfers alone.
    PimConfig big = base;
    big.ranks = 128;
    PimModel bound_model(big);
    for (const ModelRow& row : rows) {
        double floor_s = 0.0;
        for (const KernelProfile& kp : row.offload) {
            floor_s += bound_model.transferBoundSeconds(kp);
        }
        const double off =
            bound_model.simulateOffload(row.offload).offloadSeconds;
        saturates &= off <= floor_s * 1.10;
    }
    check(saturates, "speedup saturates at the host<->DPU transfer "
                     "bound: 64 -> 128 ranks moves < 5%, and the "
                     "128-rank offload sits within 10% of the "
                     "transfer-only floor");

    // 7) Tasklet scaling helps until the pipeline fills, never hurts.
    check(tasklet_monotone, "offload time is monotone nonincreasing "
                            "in tasklets/DPU (saturating at pipeline "
                            "fill / WRAM limit)");
}

}  // namespace

int
main()
{
    SweepCache sweep(allPlatformsWithPim());
    sweep.fill(allModels(), paperBatchSizes());

    fig03Speedup(sweep);
    fig05Optimal(sweep);
    fig06OpBreakdown(sweep);
    fig14DramBw(sweep);
    fig16Regression(sweep);
    extPim(sweep);
    return recstack::bench::exitStatus();
}
