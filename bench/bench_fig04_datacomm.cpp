/**
 * @file
 * Fig. 4: GPU data-communication overheads as a percentage of total
 * execution time, per model and batch size.
 */

#include "bench_util.h"
#include "graph/executor.h"

using namespace recstack;
using namespace recstack::bench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

int
main()
{
    banner("Fig. 4", "GPU data communication overhead (% of total time)");

    SweepCache sweep(allPlatforms());
    const auto batches = paperBatchSizes();

    for (size_t gpu : {kGtx, kT4}) {
        std::printf("\n--- %s ---\n", shortPlatformName(gpu));
        std::vector<std::string> headers = {"model"};
        for (int64_t b : batches) {
            headers.push_back("b=" + std::to_string(b));
        }
        TextTable table(headers);
        for (ModelId id : allModels()) {
            std::vector<std::string> row = {modelName(id)};
            for (int64_t b : batches) {
                row.push_back(TextTable::fmtPercent(
                    sweep.get(id, gpu, b).gpu.dataCommFraction()));
            }
            table.addRow(row);
        }
        std::printf("%s", table.render().c_str());
    }

    // Host-side staging memory behind the transfers, at the largest
    // batch of the figure. Activation bytes come from a shape-only
    // workspace, so the right accessor is plannedBytes() (would-be
    // payload of metadata-only blobs) — materializedBytes() is zero
    // here and totalBytes() would not say which kind it counted. The
    // planned column is the compiled net's arena peak for the same
    // batch (graph/compiled_net.h).
    const int64_t staging_batch = 4096;
    std::printf("\n--- host staging memory at b=%lld ---\n",
                static_cast<long long>(staging_batch));
    TextTable staging({"model", "inputs MiB", "activations MiB",
                       "planned arena MiB", "arena/naive"});
    bool arena_smaller = true;
    for (ModelId id : allModels()) {
        const Model& model = sweep.characterizer().model(id);
        Workspace ws;
        ws.setShapeOnly(true);
        model.declareParams(ws);
        const size_t param_bytes = ws.plannedBytes();
        BatchGenerator gen(model.workload);
        gen.declare(ws, staging_batch);
        const size_t input_bytes = ws.plannedBytes() - param_bytes;
        Executor::run(model.net, ws, ExecMode::kProfileOnly);
        const size_t act_bytes =
            ws.plannedBytes() - param_bytes - input_bytes;
        const NetPlan& plan = sweep.memoryPlan(id, staging_batch);
        arena_smaller &= plan.arenaBytes <= act_bytes;
        staging.addRow(
            {modelName(id),
             TextTable::fmt(static_cast<double>(input_bytes) / kMiB, 2),
             TextTable::fmt(static_cast<double>(act_bytes) / kMiB, 2),
             TextTable::fmt(static_cast<double>(plan.arenaBytes) / kMiB,
                            2),
             TextTable::fmtPercent(
                 static_cast<double>(plan.arenaBytes) /
                 static_cast<double>(std::max<size_t>(1, act_bytes)))});
    }
    std::printf("%s", staging.render().c_str());

    checkHeader();
    // Fraction grows with batch size once past the launch-latency
    // regime; the lookup-heavy models show it most clearly.
    bool grows = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2, ModelId::kDIN,
                       ModelId::kDIEN}) {
        grows &= sweep.get(id, kGtx, 16384).gpu.dataCommFraction() >
                 sweep.get(id, kGtx, 64).gpu.dataCommFraction();
    }
    check(grows, "data-communication share grows with batch size for "
                 "the embedding/attention models (compute accelerates, "
                 "transfer does not)");

    // Embedding-lookup models suffer most at large batch.
    const double rm2 =
        sweep.get(ModelId::kRM2, kGtx, 16384).gpu.dataCommFraction();
    const double rm3 =
        sweep.get(ModelId::kRM3, kGtx, 16384).gpu.dataCommFraction();
    check(rm2 > rm3, "models relying on embedding lookups (RM2) spend "
                     "a larger share on data movement than FC models "
                     "(RM3)");
    check(rm2 > 0.3, "at large batch, data communication is a major "
                     "(>30%) share for lookup-heavy models");
    check(arena_smaller, "liveness-planned arenas never stage more "
                         "host activation memory than per-blob "
                         "allocation");
    return recstack::bench::exitStatus();
}
