/**
 * @file
 * Quickstart: build a recommendation model, run real inference
 * numerics on a small batch, then characterize it on the four Table
 * II platforms.
 *
 * Usage: quickstart [MODEL] [BATCH]   (default: RM1 16)
 */

#include <cstdio>
#include <string>

#include "core/characterizer.h"
#include "graph/executor.h"
#include "report/chart.h"
#include "report/table.h"

using namespace recstack;

int
main(int argc, char** argv)
{
    const std::string model_name = argc > 1 ? argv[1] : "RM1";
    const int64_t batch = argc > 2 ? std::atoll(argv[2]) : 16;
    if (batch <= 0) {
        std::fprintf(stderr, "BATCH must be a positive integer, got '%s'\n",
                     argv[2]);
        return 2;
    }
    const ModelId id = modelFromName(model_name);

    // --- 1. Real numerics on a scaled-down instance ---------------
    // (full-size tables are unnecessary to demonstrate correctness)
    {
        Model model = buildModel(id, tinyOptions());
        Workspace ws;
        model.initParams(ws, /*seed=*/7);
        BatchGenerator gen(model.workload, /*seed=*/42);
        gen.materialize(ws, 8);
        const NetExecResult exec =
            Executor::run(model.net, ws, ExecMode::kFull);
        const Tensor& out = ws.get(model.outputBlob);
        std::printf("numeric check: %s -> output %s, first scores:",
                    model.name.c_str(), out.describe().c_str());
        for (int64_t i = 0; i < std::min<int64_t>(4, out.numel()); ++i) {
            std::printf(" %.4f", out.data<float>()[i]);
        }
        std::printf("  (%zu ops, %.1f ms host)\n\n", exec.records.size(),
                    exec.hostSeconds * 1e3);
    }

    // --- 2. Cross-stack characterization ---------------------------
    Characterizer characterizer;
    const auto platforms = allPlatforms();

    TextTable table({"platform", "latency", "speedup vs BDW",
                     "dominant operator"});
    double baseline = 0.0;
    for (const auto& platform : platforms) {
        const RunResult r = characterizer.run(id, platform, batch);
        if (baseline == 0.0) {
            baseline = r.seconds;
        }
        table.addRow({platform.name(), TextTable::fmtSeconds(r.seconds),
                      TextTable::fmtSpeedup(baseline / r.seconds),
                      r.breakdown.dominantType()});
    }
    std::printf("%s at batch %lld, end-to-end:\n%s\n", model_name.c_str(),
                static_cast<long long>(batch), table.render().c_str());

    // --- 3. Operator breakdown + TopDown on Broadwell ---------------
    const RunResult bdw = characterizer.run(id, platforms[0], batch);
    std::printf("operator breakdown (Broadwell):\n");
    std::vector<ChartItem> items;
    for (const auto& [type, frac] : bdw.breakdown.fractions()) {
        if (frac >= 0.01) {
            items.push_back({type, frac * 100.0});
        }
    }
    std::printf("%s\n", barChart(items, 40, "%").c_str());

    const TopDownL1& l1 = bdw.topdown.l1;
    std::printf("%s",
                stackedBar("TopDown",
                           {{"retire", l1.retiring},
                            {"badspec", l1.badSpeculation},
                            {"frontend", l1.frontendBound},
                            {"backend", l1.backendBound}})
                    .c_str());
    return 0;
}
