/**
 * @file
 * Table II: the four hardware platforms and the parameters their
 * recstack models are configured with, plus the near-memory PIM
 * extension platform (src/pim/) as a third column group.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Table II", "Summary of hardware platforms studied");

    const CpuConfig bdw = broadwellConfig();
    const CpuConfig clx = cascadeLakeConfig();
    TextTable cpus({"parameter", "Broadwell", "Cascade Lake"});
    auto row = [&](const char* name, const std::string& a,
                   const std::string& b) {
        cpus.addRow({name, a, b});
    };
    row("frequency", TextTable::fmt(bdw.freqGHz, 1) + " GHz",
        TextTable::fmt(clx.freqGHz, 1) + " GHz");
    row("SIMD", "AVX-2 (256b)", "AVX-512 VNNI (512b)");
    row("L1", "32 KB", "32 KB");
    row("L2", "256 KB", "1 MB");
    row("L3", "40 MB (inclusive)", "22 MB (exclusive)");
    row("DRAM BW", TextTable::fmt(bdw.dramGBs, 0) + " GB/s",
        TextTable::fmt(clx.dramGBs, 0) + " GB/s");
    row("DSB delivery", TextTable::fmt(bdw.dsbUopsPerCycle, 1) + " uops/cyc",
        TextTable::fmt(clx.dsbUopsPerCycle, 1) + " uops/cyc");
    row("mispredict penalty", std::to_string(bdw.mispredictPenalty) + " cyc",
        std::to_string(clx.mispredictPenalty) + " cyc");
    std::printf("%s\n", cpus.render().c_str());

    const GpuConfig gtx = gtx1080TiConfig();
    const GpuConfig t4 = t4Config();
    TextTable gpus({"parameter", "GTX 1080 Ti", "T4"});
    auto grow = [&](const char* name, const std::string& a,
                    const std::string& b) {
        gpus.addRow({name, a, b});
    };
    grow("SM count", std::to_string(gtx.smCount),
         std::to_string(t4.smCount));
    grow("frequency", TextTable::fmt(gtx.freqGHz, 2) + " GHz",
         TextTable::fmt(t4.freqGHz, 2) + " GHz");
    grow("mem BW", TextTable::fmt(gtx.memGBs, 0) + " GB/s (GDDR5X)",
         TextTable::fmt(t4.memGBs, 0) + " GB/s (GDDR6)");
    grow("sustained GEMM", TextTable::fmt(gtx.effTflops, 1) + " TF",
         TextTable::fmt(t4.effTflops, 1) + " TF");
    grow("gather efficiency", TextTable::fmt(gtx.gatherEfficiency, 2),
         TextTable::fmt(t4.gatherEfficiency, 2));
    grow("kernel launch", TextTable::fmtSeconds(gtx.kernelLaunchSec),
         TextTable::fmtSeconds(t4.kernelLaunchSec));
    std::printf("%s\n", gpus.render().c_str());

    const PimConfig pim = upmemPimConfig();
    TextTable pims({"parameter", pim.name});
    auto prow = [&](const char* name, const std::string& a) {
        pims.addRow({name, a});
    };
    prow("DPU ranks", std::to_string(pim.ranks));
    prow("DPUs / rank", std::to_string(pim.dpusPerRank));
    prow("tasklets / DPU",
         std::to_string(pim.taskletsPerDpu) + " (pipeline fills at " +
             std::to_string(pim.pipelineFillTasklets) + ")");
    prow("rank internal BW",
         TextTable::fmt(pim.rankInternalGBs, 1) + " GB/s");
    prow("WRAM / DPU",
         std::to_string(pim.wramBytesPerDpu / 1024) + " KB");
    prow("host<->DPU BW", TextTable::fmt(pim.xferGBs, 1) + " GB/s");
    prow("host<->DPU latency",
         TextTable::fmtSeconds(pim.xferLatencySec));
    prow("host CPU", pim.host.name);
    std::printf("%s\n", pims.render().c_str());

    // Per-model activation memory on these platforms at a serving
    // batch: what op-at-a-time execution allocates (one blob per
    // activation of the builder's net) vs the compiled net's
    // liveness-planned arena peak (graph/compiled_net.h).
    const int64_t plan_batch = 256;
    constexpr double kMiB = 1024.0 * 1024.0;
    SweepCache sweep(allPlatforms());
    std::printf("--- activation memory at b=%lld (naive vs planned) ---\n",
                static_cast<long long>(plan_batch));
    TextTable mem({"model", "naive MiB", "planned MiB", "planned/naive",
                   "fused ops"});
    double rm2_ratio = 1.0;
    double dien_ratio = 1.0;
    for (ModelId id : allModels()) {
        const NetPlan& plan = sweep.memoryPlan(id, plan_batch);
        const CompiledNet& net = sweep.characterizer().compiled(id);
        const double ratio =
            static_cast<double>(plan.arenaBytes) /
            static_cast<double>(std::max<size_t>(
                1, plan.naiveActivationBytes));
        if (id == ModelId::kRM2) {
            rm2_ratio = ratio;
        }
        if (id == ModelId::kDIEN) {
            dien_ratio = ratio;
        }
        mem.addRow(
            {modelName(id),
             TextTable::fmt(
                 static_cast<double>(plan.naiveActivationBytes) / kMiB, 2),
             TextTable::fmt(static_cast<double>(plan.arenaBytes) / kMiB,
                            2),
             TextTable::fmtPercent(ratio),
             std::to_string(net.fusions().size())});
    }
    std::printf("%s", mem.render().c_str());

    checkHeader();
    check(clx.l2.sizeBytes > bdw.l2.sizeBytes &&
              clx.l3.sizeBytes < bdw.l3.sizeBytes,
          "Cascade Lake: larger L2, smaller exclusive L3");
    check(clx.simdBits == 2 * bdw.simdBits,
          "Cascade Lake doubles SIMD width (AVX-2 -> AVX-512)");
    check(t4.smCount > gtx.smCount && t4.memGBs < gtx.memGBs,
          "T4: more SMs, lower raw GDDR bandwidth than 1080 Ti");
    check(rm2_ratio <= 0.60,
          "memory planning fits RM2 activations in <= 60% of the "
          "naive per-blob sum at serving batch");
    check(dien_ratio <= 0.60,
          "memory planning fits DIEN's unrolled-GRU activations in "
          "<= 60% of the naive per-blob sum at serving batch");
    check(pim.ranks * pim.rankInternalGBs > bdw.dramGBs &&
              pim.xferGBs < bdw.dramGBs,
          "PIM (ext): aggregate in-memory bandwidth exceeds the host's "
          "DRAM while the host<->DPU path stays far narrower — the "
          "asymmetry the offload exploits");
    return recstack::bench::exitStatus();
}
