/**
 * @file
 * recstack — command-line front end to the characterization stack.
 *
 *   recstack models
 *   recstack platforms
 *   recstack run <MODEL> <BATCH> [platform-substring]
 *   recstack sweep <MODEL|all> [--csv]
 *   recstack topdown <MODEL> <BATCH> <bdw|clx>
 *   recstack schedule <MODEL> <SLA_MS>
 *   recstack plan <MODEL> <BATCH> [--json]
 *   recstack store <MODEL> <BATCH> [--json]
 *   recstack obs <MODEL> <BATCH> [--trace out.json] [--metrics]
 *   recstack hetero <MODEL> [--json]
 *   recstack pim <MODEL> <BATCH> [--json]
 *   recstack fleet <MODEL> [--nodes N] [--json]
 *   recstack record <MODEL> <BATCH> <FILE>
 *   recstack replay <FILE> [platform-substring]
 *   recstack custom <CONFIG> <BATCH>
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/trace_runner.h"
#include "graph/executor.h"
#include "models/custom.h"
#include "models/store_binding.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pim/pim_model.h"
#include "obs/trace_export.h"
#include "report/chart.h"
#include "report/csv.h"
#include "report/table.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet_sim.h"
#include "sched/hill_climb.h"
#include "sched/query_scheduler.h"
#include "serve/serving_node.h"

using namespace recstack;

namespace {

int
usage()
{
    std::printf(
        "recstack — cross-stack recommendation-inference characterizer\n"
        "\n"
        "  recstack models                          Table I summary\n"
        "  recstack platforms                       Table II summary\n"
        "  recstack run <MODEL> <BATCH> [PLATFORM]  one characterization\n"
        "  recstack sweep <MODEL|all> [--csv]       model x platform x "
        "batch grid\n"
        "  recstack topdown <MODEL> <BATCH> <bdw|clx>  TopDown drill-"
        "down\n"
        "  recstack schedule <MODEL> <SLA_MS>       SLA-aware routing\n"
        "  recstack plan <MODEL> <BATCH> [--json]   compiled schedule + "
        "arena memory plan\n"
        "  recstack store <MODEL> <BATCH> [--json]  sharded embedding-"
        "store hit/miss/tier report\n"
        "  recstack obs <MODEL> <BATCH> [--trace FILE] [--metrics]\n"
        "                                           serve real batches, "
        "export a Chrome trace\n"
        "                                           + metrics snapshot\n"
        "  recstack hetero <MODEL> [--json]         tune the CPU/GPU "
        "routing threshold online\n"
        "  recstack pim <MODEL> <BATCH> [--json]    near-memory offload "
        "report + rank/tasklet sweep\n"
        "  recstack fleet <MODEL> [--nodes N] [--json]\n"
        "                                           simulate an M-node "
        "fleet: routing policies\n"
        "                                           + obs-driven "
        "autoscaling\n"
        "  recstack record <MODEL> <BATCH> <FILE>   capture a kernel "
        "trace\n"
        "  recstack replay <FILE> [PLATFORM]        re-simulate a "
        "trace\n"
        "  recstack custom <CONFIG> <BATCH>         characterize a "
        "user-defined model\n");
    return 2;
}

/**
 * Parse a positive integer (BATCH, --nodes) or positive real (SLA_MS)
 * argument.
 * Anything else — trailing junk, zero, a negative, inf or nan — names
 * the argument on stderr and exits 2, like usage().
 */
template <typename T>
T
positiveArg(const char* name, const char* text)
{
    T value{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || !(value > 0) ||
        !std::isfinite(static_cast<double>(value))) {
        std::fprintf(stderr, "%s must be a positive %s, got '%s'\n", name,
                     std::is_integral_v<T> ? "integer" : "number", text);
        std::exit(2);
    }
    return value;
}

/** True if argv[i] is absent or exactly @p flag, and nothing follows. */
bool
optionalFlag(int argc, char** argv, int i, const char* flag)
{
    return argc == i || (argc == i + 1 && std::strcmp(argv[i], flag) == 0);
}

int
cmdModels()
{
    Characterizer c;
    TextTable table({"model", "domain", "tables", "lookups/table",
                     "ops", "insight"});
    for (ModelId id : allModels()) {
        const Model& m = c.model(id);
        table.addRow({m.name, modelDomain(id),
                      std::to_string(m.features.numTables),
                      TextTable::fmt(m.features.lookupsPerTable, 0),
                      std::to_string(m.net.opCount()),
                      modelInsight(id)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdPlatforms()
{
    TextTable table({"platform", "kind", "key parameters"});
    for (const Platform& p : allPlatforms()) {
        if (p.kind == PlatformKind::kCpu) {
            table.addRow(
                {p.name(), "CPU",
                 TextTable::fmt(p.cpu.freqGHz, 1) + " GHz, " +
                     std::to_string(p.cpu.simdBits) + "b SIMD, L3 " +
                     std::to_string(p.cpu.l3.sizeBytes >> 20) + " MB (" +
                     (p.cpu.l3Policy == InclusionPolicy::kInclusive
                          ? "inclusive"
                          : "exclusive") +
                     "), " + TextTable::fmt(p.cpu.dramGBs, 0) +
                     " GB/s DRAM"});
        } else {
            table.addRow(
                {p.name(), "GPU",
                 std::to_string(p.gpu.smCount) + " SMs, " +
                     TextTable::fmt(p.gpu.effTflops, 2) +
                     " TF sustained, " +
                     TextTable::fmt(p.gpu.memGBs, 0) + " GB/s"});
        }
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdRun(const std::string& model, int64_t batch,
       const std::string& platform_filter)
{
    const ModelId id = modelFromName(model);
    Characterizer c;
    TextTable table({"platform", "latency", "dominant op", "detail"});
    for (const Platform& p : allPlatforms()) {
        if (!platform_filter.empty() &&
            p.name().find(platform_filter) == std::string::npos) {
            continue;
        }
        const RunResult r = c.run(id, p, batch);
        std::string detail;
        if (r.kind == PlatformKind::kCpu) {
            detail = "retire " +
                     TextTable::fmtPercent(r.topdown.l1.retiring) +
                     ", backend " +
                     TextTable::fmtPercent(r.topdown.l1.backendBound) +
                     ", IPC " + TextTable::fmt(r.topdown.ipc, 2);
        } else {
            detail = "data-comm " +
                     TextTable::fmtPercent(r.gpu.dataCommFraction());
        }
        table.addRow({p.name(), TextTable::fmtSeconds(r.seconds),
                      r.breakdown.dominantType(), detail});
    }
    if (table.rows() == 0) {
        std::printf("no platform matches '%s'\n",
                    platform_filter.c_str());
        return 1;
    }
    std::printf("%s batch %lld:\n%s", modelName(id),
                static_cast<long long>(batch), table.render().c_str());
    return 0;
}

int
cmdSweep(const std::string& which, bool csv)
{
    SweepCache sweep(allPlatforms());
    std::vector<ModelId> models;
    if (which == "all") {
        models = allModels();
    } else {
        models.push_back(modelFromName(which));
    }

    if (csv) {
        CsvWriter writer(&std::cout);
        writer.header({"model", "platform", "batch", "seconds",
                       "speedup_vs_bdw", "dominant_op"});
        for (ModelId id : models) {
            for (size_t p = 0; p < sweep.platforms().size(); ++p) {
                for (int64_t b : paperBatchSizes()) {
                    const RunResult& r = sweep.get(id, p, b);
                    writer.row({modelName(id),
                                sweep.platforms()[p].name(),
                                std::to_string(b),
                                TextTable::fmt(r.seconds, 9),
                                TextTable::fmt(
                                    sweep.speedupOverBaseline(id, p, b),
                                    3),
                                r.breakdown.dominantType()});
                }
            }
        }
        return 0;
    }

    for (ModelId id : models) {
        std::printf("\n--- %s ---\n", modelName(id));
        TextTable table({"batch", "BDW", "CLX", "1080Ti", "T4"});
        for (int64_t b : paperBatchSizes()) {
            table.addRow(
                {std::to_string(b),
                 TextTable::fmtSeconds(sweep.get(id, 0, b).seconds),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, 1, b)),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, 2, b)),
                 TextTable::fmtSpeedup(
                     sweep.speedupOverBaseline(id, 3, b))});
        }
        std::printf("%s", table.render().c_str());
    }
    return 0;
}

int
cmdTopdown(const std::string& model, int64_t batch,
           const std::string& uarch)
{
    const Platform platform =
        uarch == "clx" ? makeCpuPlatform(cascadeLakeConfig())
                       : makeCpuPlatform(broadwellConfig());
    Characterizer c;
    const RunResult r = c.run(modelFromName(model), platform, batch);
    const TopDownL1& l1 = r.topdown.l1;
    std::printf("%s batch %lld on %s (%s):\n\n", model.c_str(),
                static_cast<long long>(batch), platform.name().c_str(),
                TextTable::fmtSeconds(r.seconds).c_str());
    std::printf("%s",
                stackedBar("TopDown L1",
                           {{"retire", l1.retiring},
                            {"badspec", l1.badSpeculation},
                            {"frontend", l1.frontendBound},
                            {"backend", l1.backendBound}})
                    .c_str());
    std::printf(
        "\nL2: feLat %.1f%%  feDSB %.1f%%  feMITE %.1f%%  beCore %.1f%%"
        "  beMem %.1f%% (L2 %.1f%% / L3 %.1f%% / DRAM %.1f%%)\n"
        "IPC %.2f   AVX %.1f%%   i-MPKI %.2f   mispredicts/kuop %.2f\n",
        100 * r.topdown.l2.feLatency, 100 * r.topdown.l2.feBandwidthDsb,
        100 * r.topdown.l2.feBandwidthMite, 100 * r.topdown.l2.beCore,
        100 * r.topdown.l2.beMemory, 100 * r.topdown.l2.memL2,
        100 * r.topdown.l2.memL3,
        100 * (r.topdown.l2.memDramLatency +
               r.topdown.l2.memDramBandwidth),
        r.topdown.ipc, 100 * r.topdown.avxFraction, r.topdown.imspki,
        r.topdown.mispredictsPerKuop);

    std::printf("\noperator breakdown:\n");
    std::vector<ChartItem> items;
    for (const auto& [type, frac] : r.breakdown.fractions()) {
        if (frac >= 0.02) {
            items.push_back({type, frac * 100.0});
        }
    }
    std::printf("%s", barChart(items, 40, "%").c_str());
    return 0;
}

int
cmdSchedule(const std::string& model, double sla_ms)
{
    SweepCache sweep(allPlatforms());
    QueryScheduler sched(&sweep);
    const ModelId id = modelFromName(model);
    const ThroughputPoint tp =
        sched.bestThroughputUnderSla(id, sla_ms * 1e-3);
    if (!tp.feasible) {
        std::printf("%s cannot meet a %.2f ms SLA on any platform at "
                    "any batch size\n",
                    modelName(id), sla_ms);
        return 1;
    }
    std::printf("%s under a %.2f ms SLA:\n  platform   %s\n  batch     "
                " %lld\n  latency    %s\n  throughput %.0f samples/s\n",
                modelName(id), sla_ms,
                sweep.platforms()[tp.platformIdx].name().c_str(),
                static_cast<long long>(tp.batch),
                TextTable::fmtSeconds(tp.latencySeconds).c_str(),
                tp.samplesPerSecond);
    return 0;
}

int
cmdRecord(const std::string& model, int64_t batch,
          const std::string& path)
{
    Characterizer characterizer;
    const RecordedTrace trace =
        recordTrace(characterizer, modelFromName(model), batch);
    std::string error;
    if (!saveTrace(path, trace.meta, trace.kernels, &error)) {
        std::printf("error: %s\n", error.c_str());
        return 1;
    }
    std::printf("recorded %zu kernels of %s batch %lld to %s\n",
                trace.kernels.size(), trace.meta.model.c_str(),
                static_cast<long long>(batch), path.c_str());
    return 0;
}

int
cmdReplay(const std::string& path, const std::string& platform_filter)
{
    RecordedTrace trace;
    std::string error;
    if (!loadTrace(path, &trace.meta, &trace.kernels, &error)) {
        std::printf("error: %s\n", error.c_str());
        return 1;
    }
    std::printf("trace: %s batch %lld, %zu kernels\n",
                trace.meta.model.c_str(),
                static_cast<long long>(trace.meta.batch),
                trace.kernels.size());
    TextTable table({"platform", "latency", "dominant op"});
    for (const Platform& p : allPlatforms()) {
        if (!platform_filter.empty() &&
            p.name().find(platform_filter) == std::string::npos) {
            continue;
        }
        const RunResult r = replayTrace(trace, p);
        table.addRow({p.name(), TextTable::fmtSeconds(r.seconds),
                      r.breakdown.dominantType()});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdCustom(const std::string& path, int64_t batch)
{
    CustomModelConfig config;
    std::string error;
    if (!loadCustomModelConfig(path, &config, &error)) {
        std::printf("error: %s\n", error.c_str());
        return 1;
    }
    Model model = buildCustomModel(config);
    std::printf("%s: %d tables, %zu ops, %.1f M parameters\n\n",
                model.name.c_str(), model.features.numTables,
                model.net.opCount(),
                static_cast<double>(model.paramBytes()) / 4e6);

    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    BatchGenerator gen(model.workload);
    gen.declare(ws, batch);
    const NetExecResult exec =
        Executor::run(model.net, ws, ExecMode::kProfileOnly);
    std::vector<KernelProfile> profiles;
    profiles.push_back(gen.dataLoadProfile(batch));
    for (const auto& rec : exec.records) {
        profiles.push_back(rec.profile);
    }

    TextTable table({"platform", "latency", "dominant op", "detail"});
    for (const Platform& p : allPlatforms()) {
        const RunResult r = simulateProfiles(
            profiles, p, ModelId::kCustom, batch, gen.inputBytes(batch),
            model.workload.categorical.size() * 2 +
                model.workload.continuous.size());
        std::string detail;
        if (r.kind == PlatformKind::kCpu) {
            detail = "retire " +
                     TextTable::fmtPercent(r.topdown.l1.retiring) +
                     ", backend " +
                     TextTable::fmtPercent(r.topdown.l1.backendBound);
        } else {
            detail = "data-comm " +
                     TextTable::fmtPercent(r.gpu.dataCommFraction());
        }
        table.addRow({p.name(), TextTable::fmtSeconds(r.seconds),
                      r.breakdown.dominantType(), detail});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

/** Dump the compiled schedule, fusion decisions and arena layout. */
int
cmdPlan(const std::string& model, int64_t batch, bool json)
{
    const ModelId id = modelFromName(model);
    Characterizer c;
    const CompiledNet& net = c.compiled(id);
    const NetPlan& plan = c.memoryPlan(id, batch);
    const auto& blobs = net.blobs();
    const double naive =
        static_cast<double>(std::max<size_t>(1, plan.naiveActivationBytes));
    const double ratio = static_cast<double>(plan.arenaBytes) / naive;

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n  \"batch\": %lld,\n",
                    c.model(id).name.c_str(),
                    static_cast<long long>(batch));
        std::printf("  \"originalOps\": %zu,\n  \"compiledOps\": %zu,\n",
                    net.originalOpCount(), net.opCount());
        std::printf("  \"kernelIsa\": \"%s\",\n",
                    kernelIsaName(plan.kernelIsa));
        std::printf("  \"naiveActivationBytes\": %zu,\n",
                    plan.naiveActivationBytes);
        std::printf("  \"fusedActivationBytes\": %zu,\n",
                    plan.fusedActivationBytes);
        std::printf("  \"arenaBytes\": %zu,\n", plan.arenaBytes);
        std::printf("  \"arenaToNaive\": %.4f,\n", ratio);
        std::printf("  \"fusions\": [\n");
        const auto& fusions = net.fusions();
        for (size_t i = 0; i < fusions.size(); ++i) {
            std::printf("    {\"kind\": \"%s\", \"op\": \"%s\", "
                        "\"absorbed\": %zu}%s\n",
                        fusions[i].kind.c_str(),
                        fusions[i].fusedOp.c_str(),
                        fusions[i].absorbedOps.size(),
                        i + 1 < fusions.size() ? "," : "");
        }
        std::printf("  ],\n  \"blobs\": [\n");
        for (size_t i = 0; i < blobs.size(); ++i) {
            const char* role =
                blobs[i].role == BlobRole::kExternalInput    ? "input"
                : blobs[i].role == BlobRole::kExternalOutput ? "output"
                                                             : "activation";
            std::printf("    {\"name\": \"%s\", \"role\": \"%s\", "
                        "\"def\": %d, \"lastUse\": %d, \"bytes\": %zu",
                        blobs[i].name.c_str(), role, blobs[i].def,
                        blobs[i].lastUse, plan.bytes[i]);
            if (plan.offsets[i] != kNoArenaOffset) {
                std::printf(", \"arenaOffset\": %zu", plan.offsets[i]);
            }
            std::printf("}%s\n", i + 1 < blobs.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("%s @ batch %lld: %zu ops compiled to %zu (%zu fusions)"
                ", kernel tier %s\n\n",
                c.model(id).name.c_str(), static_cast<long long>(batch),
                net.originalOpCount(), net.opCount(),
                net.fusions().size(), kernelIsaName(plan.kernelIsa));

    TextTable fusions({"pass", "fused op", "absorbed"});
    for (const FusionDecision& f : net.fusions()) {
        fusions.addRow({f.kind, f.fusedOp,
                        std::to_string(f.absorbedOps.size()) + " ops"});
    }
    std::printf("%s\n", fusions.render().c_str());

    TextTable sched({"#", "type", "op", "outputs"});
    const auto& ops = net.ops();
    for (size_t i = 0; i < ops.size(); ++i) {
        std::string outs;
        for (const auto& o : ops[i]->outputs()) {
            outs += (outs.empty() ? "" : ", ") + o;
        }
        sched.addRow({std::to_string(i), ops[i]->type(), ops[i]->name(),
                      outs});
    }
    std::printf("%s\n", sched.render().c_str());

    TextTable arena({"blob", "role", "live", "bytes", "arena offset"});
    for (size_t i = 0; i < blobs.size(); ++i) {
        const char* role =
            blobs[i].role == BlobRole::kExternalInput    ? "input"
            : blobs[i].role == BlobRole::kExternalOutput ? "output"
                                                         : "activation";
        arena.addRow(
            {blobs[i].name, role,
             "[" + std::to_string(blobs[i].def) + ", " +
                 std::to_string(blobs[i].lastUse) + "]",
             std::to_string(plan.bytes[i]),
             plan.offsets[i] == kNoArenaOffset
                 ? "-"
                 : std::to_string(plan.offsets[i])});
    }
    std::printf("%s\n", arena.render().c_str());

    std::printf("activation bytes: naive %zu, fused %zu, planned arena "
                "%zu (%.1f%% of naive)\n",
                plan.naiveActivationBytes, plan.fusedActivationBytes,
                plan.arenaBytes, 100.0 * ratio);
    return 0;
}

/**
 * Run a few real batches through the sharded embedding store and
 * report per-shard cache hit/miss/tier traffic, the modeled lookup
 * cost tail, and the serving memory saving versus per-worker copies.
 */
int
cmdStore(const std::string& model_name, int64_t batch, bool json)
{
    const ModelId id = modelFromName(model_name);
    // Full-size tables (RM2: 32 x 250k x 64 floats) are ~2 GB; a
    // scaled-down store keeps the command interactive while the cache
    // is still a small fraction of the tables.
    ModelOptions opts;
    opts.tableScale = 0.05;
    const Model model = buildModel(id, opts);

    StoreConfig cfg;
    cfg.numShards = 8;
    cfg.cacheBytesPerShard = 256u << 10;
    cfg.nearTierFraction = 0.5;
    // Real disk far tier: cold rows in a page file, addressed by page
    // arithmetic; RECSTACK_STORE_DIR picks the directory.
    cfg.farTier = FarTierKind::kDisk;
    const StoreBackedModel store_model(model, cfg);
    EmbeddingStore& store = store_model.store();

    Workspace ws;
    store_model.bind(ws);
    ExecOptions exec_opts;
    exec_opts.mode = ExecMode::kNumericOnly;
    // Serial execution: numerics are width-invariant, but shard
    // hit/miss counters depend on the interleaving of concurrent
    // chunks over the shared caches. A report should be reproducible.
    exec_opts.numThreads = 1;
    const int kBatches = 8;
    for (int i = 0; i < kBatches; ++i) {
        // Fresh generator seed per batch: a repeated seed would replay
        // identical indices and make every batch after the first a
        // pure cache hit.
        BatchGenerator gen(model.workload,
                           1234 + static_cast<uint64_t>(i));
        gen.materialize(ws, batch);
        Executor::run(model.net, ws, exec_opts);
    }

    const StoreStats stats = store.stats();
    const uint64_t one_copy = store_model.embeddingBytesOneCopy();
    const uint64_t resident = store_model.residentBytes();
    const int kWorkers = 4;
    const uint64_t per_worker =
        one_copy * static_cast<uint64_t>(kWorkers);
    const uint64_t total_bytes =
        stats.total.bytesFromCache + stats.total.bytesFromNear +
        stats.total.bytesFromFar + stats.total.bytesFromDisk;
    const double dram_frac =
        total_bytes > 0
            ? static_cast<double>(stats.total.bytesFromNear +
                                  stats.total.bytesFromFar +
                                  stats.total.bytesFromDisk) /
                  static_cast<double>(total_bytes)
            : 0.0;

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n  \"batch\": %lld,\n",
                    model.name.c_str(), static_cast<long long>(batch));
        std::printf("  \"batchesRun\": %d,\n  \"numShards\": %d,\n",
                    kBatches, cfg.numShards);
        std::printf("  \"cachePolicy\": \"%s\",\n",
                    cachePolicyName(cfg.policy));
        std::printf("  \"lookups\": %llu,\n  \"hits\": %llu,\n",
                    static_cast<unsigned long long>(stats.total.lookups),
                    static_cast<unsigned long long>(stats.total.hits));
        std::printf("  \"hitRate\": %.4f,\n", stats.hitRate());
        std::printf(
            "  \"nearFetches\": %llu,\n  \"farFetches\": %llu,\n",
            static_cast<unsigned long long>(stats.total.nearFetches),
            static_cast<unsigned long long>(stats.total.farFetches));
        std::printf("  \"evictions\": %llu,\n",
                    static_cast<unsigned long long>(
                        stats.total.evictions));
        std::printf("  \"cacheFilteredTrafficFraction\": %.4f,\n",
                    dram_frac);
        std::printf("  \"farTier\": \"%s\",\n",
                    stats.diskTierActive ? "disk" : "simulated");
        std::printf(
            "  \"tiers\": {\n"
            "    \"cache\": {\"rows\": %llu, \"bytes\": %llu},\n"
            "    \"near\": {\"rows\": %llu, \"bytes\": %llu},\n"
            "    \"disk\": {\"rows\": %llu, \"bytes\": %llu, "
            "\"measuredP99Seconds\": %.3e, "
            "\"measuredSeconds\": %.6e}\n  },\n",
            static_cast<unsigned long long>(stats.total.hits),
            static_cast<unsigned long long>(stats.total.bytesFromCache),
            static_cast<unsigned long long>(stats.total.nearFetches),
            static_cast<unsigned long long>(stats.total.bytesFromNear),
            static_cast<unsigned long long>(stats.total.diskFetches),
            static_cast<unsigned long long>(stats.total.bytesFromDisk),
            stats.diskCostPercentile(0.99), stats.total.diskSeconds);
        std::printf("  \"diskFileBytes\": %llu,\n",
                    static_cast<unsigned long long>(
                        store.diskFileBytes()));
        std::printf("  \"simSeconds\": %.6e,\n", stats.total.simSeconds);
        std::printf("  \"lookupCostP50\": %.3e,\n",
                    stats.costPercentile(0.50));
        std::printf("  \"lookupCostP99\": %.3e,\n",
                    stats.costPercentile(0.99));
        std::printf("  \"tableBytesOneCopy\": %llu,\n",
                    static_cast<unsigned long long>(one_copy));
        std::printf("  \"storeResidentBytes\": %llu,\n",
                    static_cast<unsigned long long>(resident));
        std::printf("  \"perWorkerBytesAt%dWorkers\": %llu,\n", kWorkers,
                    static_cast<unsigned long long>(per_worker));
        std::printf("  \"perShard\": [\n");
        for (size_t s = 0; s < stats.perShard.size(); ++s) {
            const ShardCounters& c = stats.perShard[s];
            std::printf(
                "    {\"shard\": %zu, \"lookups\": %llu, "
                "\"hitRate\": %.4f, \"near\": %llu, \"far\": %llu, "
                "\"evictions\": %llu, \"cacheBytes\": %llu}%s\n",
                s, static_cast<unsigned long long>(c.lookups),
                c.hitRate(),
                static_cast<unsigned long long>(c.nearFetches),
                static_cast<unsigned long long>(c.farFetches),
                static_cast<unsigned long long>(c.evictions),
                static_cast<unsigned long long>(c.cacheBytesUsed),
                s + 1 < stats.perShard.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("%s @ batch %lld: %d batches through a %d-shard "
                "embedding store (%s, %zu KB cache/shard, near-tier "
                "fraction %.2f)\n\n",
                model.name.c_str(), static_cast<long long>(batch),
                kBatches, cfg.numShards, cachePolicyName(cfg.policy),
                cfg.cacheBytesPerShard >> 10, cfg.nearTierFraction);

    TextTable shards({"shard", "lookups", "hit rate", "near", "far",
                      "disk", "evictions", "cache KB"});
    for (size_t s = 0; s < stats.perShard.size(); ++s) {
        const ShardCounters& c = stats.perShard[s];
        shards.addRow({std::to_string(s), std::to_string(c.lookups),
                       TextTable::fmtPercent(c.hitRate()),
                       std::to_string(c.nearFetches),
                       std::to_string(c.farFetches),
                       std::to_string(c.diskFetches),
                       std::to_string(c.evictions),
                       std::to_string(c.cacheBytesUsed >> 10)});
    }
    shards.addRow({"total", std::to_string(stats.total.lookups),
                   TextTable::fmtPercent(stats.hitRate()),
                   std::to_string(stats.total.nearFetches),
                   std::to_string(stats.total.farFetches),
                   std::to_string(stats.total.diskFetches),
                   std::to_string(stats.total.evictions),
                   std::to_string(stats.total.cacheBytesUsed >> 10)});
    std::printf("%s\n", shards.render().c_str());

    // Per-tier breakdown: cache and near costs are modeled, the disk
    // column is wall clock off the page file, sampled: each shard
    // times one disk fetch in EmbeddingStore::kDiskTimingStride.
    TextTable tiers({"tier", "rows", "bytes", "p99 cost"});
    tiers.addRow({"cache", std::to_string(stats.total.hits),
                  std::to_string(stats.total.bytesFromCache),
                  TextTable::fmtSeconds(kCacheHitLatencySeconds)});
    tiers.addRow({"near", std::to_string(stats.total.nearFetches),
                  std::to_string(stats.total.bytesFromNear),
                  TextTable::fmtSeconds(stats.costPercentile(0.99))});
    tiers.addRow(
        {stats.diskTierActive ? "disk" : "far (simulated)",
         std::to_string(stats.diskTierActive ? stats.total.diskFetches
                                             : stats.total.farFetches),
         std::to_string(stats.diskTierActive
                            ? stats.total.bytesFromDisk
                            : stats.total.bytesFromFar),
         stats.diskTierActive
             ? TextTable::fmtSeconds(stats.diskCostPercentile(0.99)) +
                   " (sampled)"
             : TextTable::fmtSeconds(stats.costPercentile(0.99))});
    std::printf("%s\n", tiers.render().c_str());

    if (stats.diskTierActive) {
        std::printf("page file %llu KB\n",
                    static_cast<unsigned long long>(
                        store.diskFileBytes() >> 10));
    }

    std::printf("lookup cost: p50 %s, p99 %s; modeled fetch time %s; "
                "disk time %s (estimated from 1 fetch in %llu)\n",
                TextTable::fmtSeconds(stats.costPercentile(0.50)).c_str(),
                TextTable::fmtSeconds(stats.costPercentile(0.99)).c_str(),
                TextTable::fmtSeconds(stats.total.simSeconds).c_str(),
                TextTable::fmtSeconds(stats.total.diskSeconds).c_str(),
                static_cast<unsigned long long>(
                    EmbeddingStore::kDiskTimingStride));
    std::printf("cache-filtered table traffic: %s of lookup bytes "
                "reach DRAM/far memory (rest served by hot-row "
                "caches)\n",
                TextTable::fmtPercent(dram_frac).c_str());
    std::printf("table memory: one copy %llu KB, store resident %llu "
                "KB, %d per-worker copies %llu KB (store saves "
                "%s)\n",
                static_cast<unsigned long long>(one_copy >> 10),
                static_cast<unsigned long long>(resident >> 10),
                kWorkers,
                static_cast<unsigned long long>(per_worker >> 10),
                TextTable::fmtPercent(
                    per_worker > 0
                        ? 1.0 - static_cast<double>(resident) /
                                    static_cast<double>(per_worker)
                        : 0.0)
                    .c_str());
    return 0;
}

/** Histogram percentiles vs the exact-sorted ServingStats path. */
struct MetricsSnapshotCross {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    bool agrees = false;
};

MetricsSnapshotCross
crossCheckLatency(const ServingStats& exact)
{
    MetricsSnapshotCross out;
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const auto it = snap.histograms.find("serve.query_latency_seconds");
    if (it == snap.histograms.end()) {
        return out;
    }
    const obs::HistogramSnapshot& h = it->second;
    out.p50 = h.percentile(0.50);
    out.p95 = h.percentile(0.95);
    out.p99 = h.percentile(0.99);
    const double tol = h.bucketWidth();
    out.agrees = std::abs(out.p50 - exact.p50Latency) <= tol &&
                 std::abs(out.p95 - exact.p95Latency) <= tol &&
                 std::abs(out.p99 - exact.p99Latency) <= tol;
    return out;
}

/**
 * Drive a short multi-worker serving run with real numerics and the
 * shared embedding store, then report the observability layer's view
 * of it: optionally a Chrome trace (--trace FILE, open in
 * chrome://tracing or https://ui.perfetto.dev) and the full metrics
 * snapshot (--metrics). See docs/observability.md.
 */
int
cmdObs(const std::string& model_name, int64_t batch,
       const std::string& trace_path, bool metrics)
{
    const ModelId id = modelFromName(model_name);
    // Same scaling rationale as `recstack store`: full-size tables are
    // GBs; a scaled model keeps a real-numerics serving run
    // interactive while every subsystem still exercises.
    ModelOptions opts;
    opts.tableScale = 0.05;
    SweepCache sweep(allPlatforms(), opts);
    QueryScheduler sched(&sweep, {1, 16, 64, 256, 1024});
    ServingNode engine(&sched, id, 0);

    EngineConfig cfg;
    cfg.numWorkers = 4;
    cfg.maxBatch = batch;
    cfg.arrivalQps = 4000.0;
    cfg.simSeconds = 0.25;
    cfg.execMode = ExecMode::kNumericOnly;
    // Width 2 so intra-op pool chunks show up in the trace alongside
    // the inter-op worker lanes.
    cfg.numThreads = 2;
    cfg.captureTrace = true;

    // Measure this run alone: both sinks are process-global and
    // cumulative.
    obs::MetricsRegistry::global().reset();
    obs::TraceBuffer::global().clear();

    const EngineResult result = engine.run(cfg);

    std::printf("%s @ maxBatch %lld: %d workers, %llu batches, %llu "
                "samples served\n",
                modelName(id), static_cast<long long>(batch),
                cfg.numWorkers,
                static_cast<unsigned long long>(result.batchesExecuted),
                static_cast<unsigned long long>(
                    result.aggregate.samplesServed));

    const MetricsSnapshotCross check =
        crossCheckLatency(result.aggregate);
    std::printf("query latency: exact p50 %s / p95 %s / p99 %s\n",
                TextTable::fmtSeconds(result.aggregate.p50Latency).c_str(),
                TextTable::fmtSeconds(result.aggregate.p95Latency).c_str(),
                TextTable::fmtSeconds(result.aggregate.p99Latency).c_str());
    std::printf("  histogram  p50 %s / p95 %s / p99 %s "
                "(1 ms buckets, %s exact within one bucket)\n",
                TextTable::fmtSeconds(check.p50).c_str(),
                TextTable::fmtSeconds(check.p95).c_str(),
                TextTable::fmtSeconds(check.p99).c_str(),
                check.agrees ? "agrees with" : "DIVERGES from");
    std::printf("store: %llu lookups, hit rate %s, far-tier "
                "fetches %llu\n",
                static_cast<unsigned long long>(
                    result.storeStats.total.lookups),
                TextTable::fmtPercent(result.storeStats.hitRate()).c_str(),
                static_cast<unsigned long long>(
                    result.storeStats.total.farFetches));

    const obs::TraceSnapshot trace = obs::TraceBuffer::global().snapshot();
    std::printf("trace: %zu spans captured, %llu dropped "
                "(buffer capacity %zu)\n",
                trace.spans.size(),
                static_cast<unsigned long long>(trace.dropped),
                obs::TraceBuffer::global().capacity());
    if (!trace_path.empty()) {
        std::string error;
        if (!obs::writeChromeTrace(trace_path, trace, &error)) {
            std::printf("error: %s\n", error.c_str());
            return 1;
        }
        std::printf("wrote %s — open in chrome://tracing or "
                    "https://ui.perfetto.dev\n",
                    trace_path.c_str());
    }
    if (metrics) {
        std::printf("\n%s",
                    obs::MetricsRegistry::global()
                        .snapshot()
                        .renderText()
                        .c_str());
    }
    return check.agrees ? 0 : 1;
}

/**
 * Close the heterogeneous-serving loop interactively: offer the model
 * a rate only the CPU-pool + GPU-lane split can hold, then let the
 * hill climber walk the routing-threshold grid reading its p99
 * feedback from the live serve.query_latency_seconds histogram. The
 * per-epoch measurements, the tuned threshold, and the final split
 * are printed (or emitted as JSON with --json). See
 * docs/scheduling.md.
 */
int
cmdHetero(const std::string& model_name, bool json)
{
    const ModelId id = modelFromName(model_name);
    // Same scaling rationale as `recstack obs`: scaled tables keep the
    // multi-epoch tuning loop interactive while the full virtual-time
    // serving path (batch queue, GPU lane, metrics feedback) still
    // exercises.
    ModelOptions opts;
    opts.tableScale = 0.05;
    SweepCache sweep(allPlatforms(), opts);
    QueryScheduler sched(&sweep, {1, 16, 64, 256, 1024});
    const size_t cpu_idx = 0;  // Broadwell worker pool
    const size_t gpu_idx = 3;  // T4 accelerator lane
    ServingNode engine(&sched, id, cpu_idx);

    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.maxBatch = 256;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.1;
    // Match the lane's accumulation to the front queue: GPU service is
    // near-linear in batch past the amortization knee, so batching
    // beyond the front queue's cap stretches the tail for nothing.
    AccelLaneConfig lane;
    lane.platformIdx = gpu_idx;
    lane.maxBatch = cfg.maxBatch;
    lane.maxWaitSeconds = cfg.maxWaitSeconds;
    cfg.lanes = {lane};

    // SLA = 3x the worse of the two platforms' half-load tails; the
    // tuning rate is 80% of the combined capacity estimate, past the
    // CPU pool's knee so the threshold choice actually matters (same
    // recipe bench_ext_hetero validates against exhaustive search).
    const double cap_cpu = cfg.numWorkers * 256.0 /
                           sched.latency(id, cpu_idx, 256);
    const double cap_gpu = 256.0 / sched.latency(id, gpu_idx, 256);
    ServingNode gpu_engine(&sched, id, gpu_idx);
    EngineConfig probe = cfg;
    probe.lanes.clear();
    probe.arrivalQps = 0.5 * cap_cpu;
    const double cpu_tail = engine.run(probe).aggregate.p99Latency;
    probe.arrivalQps = 0.5 * cap_gpu;
    const double gpu_tail = gpu_engine.run(probe).aggregate.p99Latency;
    const double sla = 3.0 * std::max(cpu_tail, gpu_tail);
    cfg.arrivalQps = 0.8 * (cap_cpu + cap_gpu);

    HillClimbConfig tune;
    tune.slaSeconds = sla;
    tune.thresholdGrid = {16, 64, 128, 256,
                          QueryScheduler::kNoThreshold};
    tune.startIndex = 2;
    tune.epochSeconds = cfg.simSeconds;
    const HillClimbResult hc =
        hillClimbThreshold(tune, [&](int64_t threshold) {
            sched.setThreshold(PlatformKind::kGpu, id, threshold);
            engine.run(cfg);
        });

    // Re-serve at the tuned threshold for the final split report.
    sched.setThreshold(PlatformKind::kGpu, id, hc.bestThreshold);
    const EngineResult tuned = engine.run(cfg);
    const LaneResult& gpu_lane = tuned.lanes.front();
    const double gpu_share =
        tuned.aggregate.samplesServed > 0
            ? static_cast<double>(gpu_lane.stats.samplesServed) /
                  static_cast<double>(tuned.aggregate.samplesServed)
            : 0.0;
    const auto threshold_label = [](int64_t t) {
        return t == QueryScheduler::kNoThreshold
                   ? std::string("none")
                   : std::to_string(t);
    };
    // JSON encodes "route nothing" as -1: kNoThreshold is int64 max,
    // which does not survive a round trip through a JSON double.
    const auto threshold_json = [](int64_t t) {
        return t == QueryScheduler::kNoThreshold
                   ? static_cast<long long>(-1)
                   : static_cast<long long>(t);
    };

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n", modelName(id));
        std::printf("  \"slaSeconds\": %.6e,\n", sla);
        std::printf("  \"offeredQps\": %.1f,\n", cfg.arrivalQps);
        std::printf("  \"history\": [\n");
        for (size_t i = 0; i < hc.history.size(); ++i) {
            const ThresholdMeasurement& m = hc.history[i];
            std::printf("    {\"threshold\": %lld, \"qps\": %.1f, "
                        "\"p99\": %.6e, \"feasible\": %s}%s\n",
                        threshold_json(m.threshold), m.qps, m.p99,
                        m.feasible ? "true" : "false",
                        i + 1 < hc.history.size() ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"epochs\": %d,\n", hc.epochs);
        std::printf("  \"anyFeasible\": %s,\n",
                    hc.anyFeasible ? "true" : "false");
        std::printf("  \"bestThreshold\": %lld,\n",
                    threshold_json(hc.bestThreshold));
        std::printf("  \"bestQps\": %.1f,\n", hc.best.qps);
        std::printf("  \"bestP99\": %.6e,\n", hc.best.p99);
        std::printf("  \"gpuSampleShare\": %.4f,\n", gpu_share);
        std::printf("  \"deferredTickets\": %llu\n",
                    static_cast<unsigned long long>(
                        gpu_lane.deferredTickets));
        std::printf("}\n");
        return 0;
    }

    std::printf("%s: %d Broadwell workers + T4 lane, offered %s qps, "
                "SLA p99 <= %s\n\n",
                modelName(id), cfg.numWorkers,
                TextTable::fmt(cfg.arrivalQps, 0).c_str(),
                TextTable::fmtSeconds(sla).c_str());
    TextTable table({"epoch", "threshold", "served qps", "p99", "SLA"});
    for (size_t i = 0; i < hc.history.size(); ++i) {
        const ThresholdMeasurement& m = hc.history[i];
        table.addRow({std::to_string(i + 1),
                      threshold_label(m.threshold),
                      TextTable::fmt(m.qps, 0),
                      TextTable::fmtSeconds(m.p99),
                      m.feasible ? "ok" : "MISS"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("tuned threshold %s after %d epochs: %s qps at p99 %s "
                "(%s of samples on the GPU lane, %llu deferred "
                "batches)\n",
                threshold_label(hc.bestThreshold).c_str(), hc.epochs,
                TextTable::fmt(hc.best.qps, 0).c_str(),
                TextTable::fmtSeconds(hc.best.p99).c_str(),
                TextTable::fmtPercent(gpu_share).c_str(),
                static_cast<unsigned long long>(gpu_lane.deferredTickets));
    if (!hc.anyFeasible) {
        std::printf("no threshold on the grid held the SLA; reported "
                    "point has the least-bad tail\n");
    }
    return 0;
}

/**
 * Near-memory offload report (docs/pim.md): price one (model, batch)
 * on Broadwell, the T4, and the UPMEM-style PIM platform, break the
 * PIM time into host / dispatch / upload / DPU / download phases, and
 * sweep rank count and tasklets-per-DPU. The host share is simulated
 * once; sweep points re-price only the analytical offload, so the
 * whole report costs three platform simulations.
 */
int
cmdPim(const std::string& model_name, int64_t batch, bool json)
{
    const ModelId id = modelFromName(model_name);
    Characterizer c;
    uint64_t input_bytes = 0;
    size_t input_blobs = 0;
    const std::vector<KernelProfile> profiles =
        c.profiles(id, batch, &input_bytes, &input_blobs);
    std::vector<KernelProfile> offload;
    for (const KernelProfile& kp : profiles) {
        if (PimModel::offloadable(kp)) {
            offload.push_back(kp);
        }
    }

    const PimConfig base = upmemPimConfig();
    const RunResult cpu = simulateProfiles(
        profiles, makeCpuPlatform(broadwellConfig()), id, batch,
        input_bytes, input_blobs);
    const RunResult gpu = simulateProfiles(
        profiles, makeGpuPlatform(t4Config()), id, batch, input_bytes,
        input_blobs);
    const RunResult pim = simulateProfiles(
        profiles, makePimPlatform(base), id, batch, input_bytes,
        input_blobs);
    const double host_seconds = pim.seconds - pim.pim.offloadSeconds;

    const std::vector<int> rank_points = {1, 2, 4, 8, 16, 32, 64};
    const std::vector<int> tasklet_points = {1, 2, 4, 8, 11, 16, 24};
    struct SweepRow {
        int value;
        PimRunResult r;
    };
    std::vector<SweepRow> rank_rows;
    for (int ranks : rank_points) {
        PimConfig cfg = base;
        cfg.ranks = ranks;
        PimModel m(cfg);
        rank_rows.push_back({ranks, m.simulateOffload(offload)});
    }
    std::vector<SweepRow> tasklet_rows;
    for (int tasklets : tasklet_points) {
        PimConfig cfg = base;
        cfg.taskletsPerDpu = tasklets;
        PimModel m(cfg);
        tasklet_rows.push_back({tasklets, m.simulateOffload(offload)});
    }

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n", modelName(id));
        std::printf("  \"batch\": %lld,\n",
                    static_cast<long long>(batch));
        std::printf("  \"ranks\": %d,\n", base.ranks);
        std::printf("  \"cpuSeconds\": %.6e,\n", cpu.seconds);
        std::printf("  \"gpuSeconds\": %.6e,\n", gpu.seconds);
        std::printf("  \"pimSeconds\": %.6e,\n", pim.seconds);
        std::printf("  \"pimHostSeconds\": %.6e,\n", host_seconds);
        std::printf("  \"pimOffloadSeconds\": %.6e,\n",
                    pim.pim.offloadSeconds);
        std::printf("  \"pimUploadSeconds\": %.6e,\n",
                    pim.pim.uploadSeconds);
        std::printf("  \"pimDpuSeconds\": %.6e,\n", pim.pim.dpuSeconds);
        std::printf("  \"pimDownloadSeconds\": %.6e,\n",
                    pim.pim.downloadSeconds);
        std::printf("  \"offloadedOps\": %llu,\n",
                    static_cast<unsigned long long>(
                        pim.pim.offloadedOps));
        std::printf("  \"offloadedLookups\": %llu,\n",
                    static_cast<unsigned long long>(pim.pim.lookups));
        std::printf("  \"speedupVsCpu\": %.3f,\n",
                    pim.seconds > 0.0 ? cpu.seconds / pim.seconds : 0.0);
        std::printf("  \"rankSweep\": [\n");
        for (size_t i = 0; i < rank_rows.size(); ++i) {
            const SweepRow& row = rank_rows[i];
            std::printf("    {\"ranks\": %d, \"seconds\": %.6e, "
                        "\"transferFraction\": %.4f}%s\n",
                        row.value, host_seconds + row.r.offloadSeconds,
                        row.r.transferFraction(),
                        i + 1 < rank_rows.size() ? "," : "");
        }
        std::printf("  ],\n  \"taskletSweep\": [\n");
        for (size_t i = 0; i < tasklet_rows.size(); ++i) {
            const SweepRow& row = tasklet_rows[i];
            std::printf("    {\"tasklets\": %d, \"seconds\": %.6e}%s\n",
                        row.value,
                        host_seconds + row.r.offloadSeconds,
                        i + 1 < tasklet_rows.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("%s batch %lld on the three platforms:\n", modelName(id),
                static_cast<long long>(batch));
    TextTable platforms({"platform", "latency", "speedup vs BDW",
                         "dominant op"});
    platforms.addRow({cpu.platformName,
                      TextTable::fmtSeconds(cpu.seconds), "1.00x",
                      cpu.breakdown.dominantType()});
    platforms.addRow({gpu.platformName,
                      TextTable::fmtSeconds(gpu.seconds),
                      TextTable::fmtSpeedup(cpu.seconds / gpu.seconds),
                      gpu.breakdown.dominantType()});
    platforms.addRow({pim.platformName,
                      TextTable::fmtSeconds(pim.seconds),
                      TextTable::fmtSpeedup(cpu.seconds / pim.seconds),
                      pim.breakdown.dominantType()});
    std::printf("%s\n", platforms.render().c_str());

    std::printf("PIM phase split (%llu offloaded ops, %llu lookups):\n",
                static_cast<unsigned long long>(pim.pim.offloadedOps),
                static_cast<unsigned long long>(pim.pim.lookups));
    TextTable phases({"phase", "seconds", "share"});
    const auto share = [&](double s) {
        return TextTable::fmtPercent(
            pim.seconds > 0.0 ? s / pim.seconds : 0.0);
    };
    phases.addRow({"host (FC/GRU/dataload)",
                   TextTable::fmtSeconds(host_seconds),
                   share(host_seconds)});
    phases.addRow({"dispatch",
                   TextTable::fmtSeconds(pim.pim.dispatchSeconds),
                   share(pim.pim.dispatchSeconds)});
    phases.addRow({"index upload",
                   TextTable::fmtSeconds(pim.pim.uploadSeconds),
                   share(pim.pim.uploadSeconds)});
    phases.addRow({"DPU pooling",
                   TextTable::fmtSeconds(pim.pim.dpuSeconds),
                   share(pim.pim.dpuSeconds)});
    phases.addRow({"result download",
                   TextTable::fmtSeconds(pim.pim.downloadSeconds),
                   share(pim.pim.downloadSeconds)});
    std::printf("%s\n", phases.render().c_str());

    std::printf("rank sweep (tasklets/DPU = %d):\n", base.taskletsPerDpu);
    TextTable ranks({"ranks", "latency", "speedup vs BDW",
                     "transfer share"});
    for (const SweepRow& row : rank_rows) {
        const double total = host_seconds + row.r.offloadSeconds;
        ranks.addRow({std::to_string(row.value),
                      TextTable::fmtSeconds(total),
                      TextTable::fmtSpeedup(cpu.seconds / total),
                      TextTable::fmtPercent(row.r.transferFraction())});
    }
    std::printf("%s\n", ranks.render().c_str());

    std::printf("tasklet sweep (ranks = %d):\n", base.ranks);
    TextTable tasklets({"tasklets/DPU", "latency", "speedup vs BDW"});
    for (const SweepRow& row : tasklet_rows) {
        const double total = host_seconds + row.r.offloadSeconds;
        tasklets.addRow({std::to_string(row.value),
                         TextTable::fmtSeconds(total),
                         TextTable::fmtSpeedup(cpu.seconds / total)});
    }
    std::printf("%s", tasklets.render().c_str());
    return 0;
}

/**
 * Cluster-scale serving demo: route a diurnally modulated, Zipf-skewed
 * query stream across an M-node fleet under each routing policy, then
 * let the autoscaler walk the fleet size against a p99 SLA read from
 * the merged per-node latency histograms. See docs/fleet.md.
 */
int
cmdFleet(const std::string& model_name, int nodes, bool json)
{
    if (nodes < 1 || nodes > 64) {
        std::fprintf(stderr, "--nodes must be in [1, 64]\n");
        return 2;
    }
    const ModelId id = modelFromName(model_name);
    // Scaled tables keep an M-node multi-policy sweep interactive;
    // the virtual-time pricing path is the full one (see `obs`).
    ModelOptions opts;
    opts.tableScale = 0.05;
    SweepCache sweep(allPlatforms(), opts);
    QueryScheduler sched(&sweep, {1, 16, 64, 256, 1024});
    fleet::FleetSimulator sim(&sched, id, 0);  // Broadwell nodes

    fleet::FleetConfig cfg;
    cfg.numNodes = nodes;
    cfg.workersPerNode = 2;
    cfg.maxBatch = 64;
    cfg.maxWaitSeconds = 1e-3;
    cfg.simSeconds = 0.2;
    cfg.placement.kind = fleet::PlacementKind::kRowPartitioned;
    cfg.placement.replicationFactor = 1;

    // Offer ~60% of the fleet's batch-64 capacity — including the
    // placement surcharge, which dominates for lookup-heavy models —
    // swinging over one full diurnal cycle (trough at half the peak)
    // so the run exercises the modulated clock.
    const fleet::PlacementView view(
        cfg.placement, nodes,
        sweep.characterizer().model(id).workload);
    const double cap_node =
        cfg.workersPerNode * 64.0 /
        (sched.latency(id, 0, 64) +
         64.0 * view.remoteSecondsPerSample());
    fleet::TrafficConfig traffic;
    traffic.baseQps = 0.6 * static_cast<double>(nodes) * cap_node;
    traffic.numUsers = 2000000;
    traffic.userZipf = 0.9;
    traffic.envelope = RateEnvelope::diurnal(cfg.simSeconds, 0.5);
    traffic.seed = 42;

    const fleet::RoutePolicy policies[] = {
        fleet::RoutePolicy::kRoundRobin,
        fleet::RoutePolicy::kConsistentHash,
        fleet::RoutePolicy::kPowerOfTwo,
    };
    fleet::FleetResult results[3];
    for (int p = 0; p < 3; ++p) {
        cfg.policy = policies[p];
        results[p] = sim.simulate(cfg, traffic);
    }
    const fleet::FleetResult& p2c = results[2];

    // Autoscale against a p99 SLA set 25% above the p2c tail at the
    // requested size, so the walk has a feasible target to find.
    fleet::AutoscalerConfig asc;
    asc.slaP99Seconds = 1.25 * p2c.mergedP99;
    asc.minNodes = 1;
    asc.maxNodes = std::max(2 * nodes, nodes + 2);
    asc.maxEpochs = 12;
    cfg.policy = fleet::RoutePolicy::kPowerOfTwo;
    const fleet::AutoscalerResult scaled = fleet::autoscale(
        asc, [&](int n, int /*epoch*/) {
            fleet::FleetConfig epoch_cfg = cfg;
            epoch_cfg.numNodes = n;
            return sim.simulate(epoch_cfg, traffic).mergedHistogram;
        });

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n", modelName(id));
        std::printf("  \"nodes\": %d,\n", nodes);
        std::printf("  \"offeredQps\": %.1f,\n", traffic.baseQps);
        std::printf("  \"remoteSecondsPerSample\": %.6e,\n",
                    p2c.remoteSecondsPerSample);
        std::printf("  \"nodeTableBytes\": %llu,\n",
                    static_cast<unsigned long long>(
                        p2c.nodeTableBytes));
        std::printf("  \"policies\": [\n");
        for (int p = 0; p < 3; ++p) {
            const fleet::FleetResult& r = results[p];
            std::printf(
                "    {\"policy\": \"%s\", \"servedQps\": %.1f, "
                "\"meanLatency\": %.6e, \"p99\": %.6e, "
                "\"mergedP99\": %.6e, \"imbalance\": %.4f}%s\n",
                fleet::routePolicyName(policies[p]),
                r.aggregate.throughputQps, r.aggregate.meanLatency,
                r.aggregate.p99Latency, r.mergedP99,
                r.routedImbalance, p + 1 < 3 ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"autoscaler\": {\n");
        std::printf("    \"slaP99Seconds\": %.6e,\n",
                    asc.slaP99Seconds);
        std::printf("    \"history\": [\n");
        for (size_t i = 0; i < scaled.history.size(); ++i) {
            const fleet::AutoscalerStep& s = scaled.history[i];
            std::printf("      {\"nodes\": %d, \"p99\": %.6e, "
                        "\"violated\": %s}%s\n",
                        s.nodes, s.p99, s.violated ? "true" : "false",
                        i + 1 < scaled.history.size() ? "," : "");
        }
        std::printf("    ],\n");
        std::printf("    \"nodes\": %d,\n", scaled.nodes);
        std::printf("    \"feasible\": %s,\n",
                    scaled.feasible ? "true" : "false");
        std::printf("    \"p99\": %.6e,\n", scaled.p99);
        std::printf("    \"epochsUsed\": %d\n", scaled.epochsUsed);
        std::printf("  }\n}\n");
        return 0;
    }

    std::printf("%s fleet: %d nodes x %d Broadwell workers, offered "
                "%s qps (diurnal, trough 50%%), row-partitioned "
                "store (+%s/sample remote)\n\n",
                modelName(id), nodes, cfg.workersPerNode,
                TextTable::fmt(traffic.baseQps, 0).c_str(),
                TextTable::fmtSeconds(
                    p2c.remoteSecondsPerSample).c_str());
    TextTable table({"policy", "served qps", "mean", "p99 (exact)",
                     "p99 (merged hist)", "imbalance"});
    for (int p = 0; p < 3; ++p) {
        const fleet::FleetResult& r = results[p];
        table.addRow({fleet::routePolicyName(policies[p]),
                      TextTable::fmt(r.aggregate.throughputQps, 0),
                      TextTable::fmtSeconds(r.aggregate.meanLatency),
                      TextTable::fmtSeconds(r.aggregate.p99Latency),
                      TextTable::fmtSeconds(r.mergedP99),
                      TextTable::fmt(r.routedImbalance, 3)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("autoscaler (SLA p99 <= %s, p2c):\n",
                TextTable::fmtSeconds(asc.slaP99Seconds).c_str());
    TextTable walk({"epoch", "nodes", "fleet p99", "SLA"});
    for (size_t i = 0; i < scaled.history.size(); ++i) {
        const fleet::AutoscalerStep& s = scaled.history[i];
        walk.addRow({std::to_string(i + 1), std::to_string(s.nodes),
                     TextTable::fmtSeconds(s.p99),
                     s.violated ? "MISS" : "ok"});
    }
    std::printf("%s", walk.render().c_str());
    std::printf("settled at %d node%s after %d epochs (p99 %s, %s)\n",
                scaled.nodes, scaled.nodes == 1 ? "" : "s",
                scaled.epochsUsed,
                TextTable::fmtSeconds(scaled.p99).c_str(),
                scaled.feasible ? "feasible" : "INFEASIBLE");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }
    if (cmd == "models") {
        return cmdModels();
    }
    if (cmd == "platforms") {
        return cmdPlatforms();
    }
    // BATCH is argv[3] for every subcommand that takes one.
    const auto batch = [&] { return positiveArg<int64_t>("BATCH", argv[3]); };
    if (cmd == "run" && (argc == 4 || argc == 5)) {
        return cmdRun(argv[2], batch(), argc > 4 ? argv[4] : "");
    }
    if (cmd == "sweep" && optionalFlag(argc, argv, 3, "--csv")) {
        return cmdSweep(argv[2], argc > 3);
    }
    if (cmd == "topdown" && argc == 5) {
        if (std::strcmp(argv[4], "bdw") != 0 &&
            std::strcmp(argv[4], "clx") != 0) {
            std::fprintf(stderr, "uarch must be bdw or clx, got '%s'\n",
                         argv[4]);
            return 2;
        }
        return cmdTopdown(argv[2], batch(), argv[4]);
    }
    if (cmd == "schedule" && argc == 4) {
        return cmdSchedule(argv[2], positiveArg<double>("SLA_MS", argv[3]));
    }
    if (cmd == "plan" && optionalFlag(argc, argv, 4, "--json")) {
        return cmdPlan(argv[2], batch(), argc > 4);
    }
    if (cmd == "store" && optionalFlag(argc, argv, 4, "--json")) {
        return cmdStore(argv[2], batch(), argc > 4);
    }
    if (cmd == "obs" && argc >= 4) {
        std::string trace_path;
        bool metrics = false;
        for (int i = 4; i < argc; ++i) {
            if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
                trace_path = argv[++i];
            } else if (std::strcmp(argv[i], "--metrics") == 0) {
                metrics = true;
            } else {
                return usage();
            }
        }
        return cmdObs(argv[2], batch(), trace_path, metrics);
    }
    if (cmd == "hetero" && optionalFlag(argc, argv, 3, "--json")) {
        return cmdHetero(argv[2], argc > 3);
    }
    if (cmd == "pim" && optionalFlag(argc, argv, 4, "--json")) {
        return cmdPim(argv[2], batch(), argc > 4);
    }
    if (cmd == "fleet" && argc >= 3) {
        int nodes = 4;
        bool json = false;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
                nodes = positiveArg<int>("--nodes", argv[++i]);
            } else if (std::strcmp(argv[i], "--json") == 0) {
                json = true;
            } else {
                return usage();
            }
        }
        return cmdFleet(argv[2], nodes, json);
    }
    if (cmd == "record" && argc == 5) {
        return cmdRecord(argv[2], batch(), argv[4]);
    }
    if (cmd == "replay" && (argc == 3 || argc == 4)) {
        return cmdReplay(argv[2], argc > 3 ? argv[3] : "");
    }
    if (cmd == "custom" && argc == 4) {
        return cmdCustom(argv[2], batch());
    }
    return usage();
}
