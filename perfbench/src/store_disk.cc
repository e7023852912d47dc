/**
 * @file
 * store-disk: one client thread serving store-backed RM2 whose cold
 * rows live on the kDisk far tier (5% near tier, small row caches,
 * Zipf-skewed lookups), with EmbeddingStore::update write-throughs
 * interleaved at a fixed ratio. A dense copy of the tables receives
 * the same updates and runs the same requests off the clock; every
 * output must be bit-equal to it.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/executor.h"
#include "models/model.h"
#include "models/store_binding.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace recstack;

constexpr int kInputs = 8;
constexpr int kUpdatesPerRequest = 4;
constexpr size_t kUpdateStream = 4096;

/** A store-backed RM2 and what serves it. */
struct Stack {
    Stack(const ModelOptions& opts, const StoreConfig& cfg)
        : model(buildModel(ModelId::kRM2, opts)),
          backed(std::make_unique<StoreBackedModel>(model, cfg))
    {
    }
    Model model;  ///< outlives `compiled` and `backed`
    std::unique_ptr<StoreBackedModel> backed;
    Workspace ws;
    std::shared_ptr<CompiledNet> compiled;
    Arena arena;
};

/** One pre-generated row write. */
struct Update {
    int table;
    int64_t row;
    std::vector<float> values;
};

}  // namespace

void
runStoreDisk(const Options& opts, Report& report)
{
    setIntraOpThreads(1);
    ModelOptions modelOpts = opts.tiny ? tinyOptions() : ModelOptions{};
    if (!opts.tiny) {
        // 5% of the full tables: about 100 MB, 95% of it on disk.
        modelOpts.tableScale = 0.05;
    }
    const int64_t batch = opts.tiny ? 4 : 16;
    StoreConfig cfg;
    cfg.numShards = 4;
    cfg.cacheBytesPerShard = opts.tiny ? (4u << 10) : (64u << 10);
    cfg.nearTierFraction = 0.05;
    cfg.farTier = FarTierKind::kDisk;
    ExecOptions exec;
    exec.mode = ExecMode::kNumericOnly;
    exec.numThreads = 1;

    std::vector<Workspace> inputs(kInputs);
    {
        const Model model = buildModel(ModelId::kRM2, modelOpts);
        for (int i = 0; i < kInputs; ++i) {
            BatchGenerator gen(model.workload, subSeed(opts.seed, 10 + i));
            gen.materialize(inputs[static_cast<size_t>(i)], batch);
        }
    }

    std::unique_ptr<Stack> stack;
    std::vector<double> setups;
    std::vector<std::string> pageDirs;
    for (int rep = 0; rep < 3; ++rep) {
        stack.reset();
        cfg.disk.dir = opts.runDir + "/store-" + std::to_string(getpid()) +
                       "-" + std::to_string(rep);
        mkdir(cfg.disk.dir.c_str(), 0755);
        pageDirs.push_back(cfg.disk.dir);
        const auto t0 = Clock::now();
        stack = std::make_unique<Stack>(modelOpts, cfg);
        stack->backed->bind(stack->ws);
        stack->compiled = CompiledNet::compile(stack->model.net);
        installBlobs(inputs[0], stack->ws);
        stack->compiled->plan(stack->ws, batch);
        setups.push_back(secondsSince(t0));
    }
    report.add("setup_s", median(setups), setups.size(),
               "build + StoreBackedModel (disk spill) + compile + plan");
    EmbeddingStore& store = stack->backed->store();

    // The dense twin: the same weights (same init seed), dense tables.
    Workspace dense;
    Arena denseArena;
    stack->model.initParams(dense);

    std::vector<Update> updates(kUpdateStream);
    {
        Rng rng(subSeed(opts.seed, 3));
        for (Update& u : updates) {
            u.table = static_cast<int>(rng.nextBounded(store.numTables()));
            const auto& info = store.tableInfo(u.table);
            u.row = static_cast<int64_t>(
                rng.nextBounded(static_cast<uint64_t>(info.rows)));
            u.values.resize(static_cast<size_t>(info.dim));
            for (float& v : u.values) {
                v = rng.nextFloat(-1.0f, 1.0f);
            }
        }
    }

    // Warm-up request (finalizes the disk tier and sizes the arenas).
    installBlobs(inputs[0], stack->ws);
    installBlobs(inputs[0], dense);
    Executor::run(*stack->compiled, stack->ws, stack->arena, batch, exec);
    Executor::run(*stack->compiled, dense, denseArena, batch, exec);

    Tracer tracer;
    Samples plain, traced;
    std::vector<double> updateUs;
    std::map<std::string, double> opSeconds;
    double slsSeconds = 0.0, execSeconds = 0.0, overhead = 0.0;
    bool corruptPending = opts.corrupt;
    size_t nextUpdate = 0;
    const auto& outNames = stack->model.net.externalOutputs();
    store.drainPrefetch();
    store.resetStats();

    const auto start = Clock::now();
    uint64_t k = 0;
    for (; secondsSince(start) < opts.seconds; ++k) {
        const bool tracedRequest = tracedTurn(opts, k);
        tracer.enable(tracedRequest);
        Tracer::Scope reqSpan(tracer, "bench.request");
        double requestTimed = 0.0;
        for (int u = 0; u < kUpdatesPerRequest; ++u) {
            const Update& up = updates[nextUpdate++ % kUpdateStream];
            report.attempt();
            const auto t0 = Clock::now();
            {
                Tracer::Scope span(tracer, "store.update");
                store.update(up.table, up.row, up.values.data());
            }
            const double s = secondsSince(t0);
            requestTimed += s;
            updateUs.push_back(1e6 * s);
            const std::string& name = store.tableInfo(up.table).name;
            std::memcpy(dense.get(name).data<float>() +
                            up.row * static_cast<int64_t>(up.values.size()),
                        up.values.data(), up.values.size() * sizeof(float));
        }

        const Workspace& in = inputs[k % kInputs];
        installBlobs(in, stack->ws);
        report.attempt();
        NetExecResult r;
        const auto t0 = Clock::now();
        try {
            Tracer::Scope span(tracer, "graph.run");
            r = Executor::run(*stack->compiled, stack->ws, stack->arena,
                              batch, exec);
        } catch (const std::exception& e) {
            report.fail(std::string("store-disk: ") + e.what());
            continue;
        }
        const double wall = secondsSince(t0);
        requestTimed += wall;

        // Off the clock: the dense twin on the same inputs.
        installBlobs(in, dense);
        Executor::run(*stack->compiled, dense, denseArena, batch, exec);
        bool equal = true;
        for (const std::string& name : outNames) {
            Tensor& out = stack->ws.get(name);
            if (corruptPending) {
                out.data<float>()[0] += 1.0f;
                corruptPending = false;
            }
            equal = equal && bitEqual(out, dense.get(name));
        }
        if (!equal) {
            report.fail("store-disk: output differs from the dense copy");
        }

        (tracedRequest ? traced : plain)
            .add(wall, static_cast<double>(batch), requestTimed);
        if (tracedRequest) {
            double opSum = 0.0;
            for (size_t o = 0; o < r.records.size(); ++o) {
                const std::string& type = stack->compiled->ops()[o]->type();
                opSeconds[type] += r.records[o].hostSeconds;
                opSum += r.records[o].hostSeconds;
                if (type == "SparseLengthsSum") {
                    slsSeconds += r.records[o].hostSeconds;
                }
            }
            overhead += wall - opSum;
            execSeconds += r.hostSeconds;
        }
    }
    addEndToEnd(report, plain, 0.9);

    const uint64_t tracedRequests = traced.items.size();
    if (opts.trace && tracedRequests > 0) {
        // Store counters cover every request of the run; kernel times
        // only the traced ones.
        const StoreStats st = store.stats();
        const double per = 1.0 / static_cast<double>(tracedRequests);
        const double perRequest = 1.0 / static_cast<double>(k);
        const double lookups = static_cast<double>(st.total.lookups);
        const uint64_t pages = st.diskTier.pageHits + st.diskTier.pageLoads;
        addOpMetrics(report, opSeconds, 0.0, 0.0, tracedRequests);
        report.add("graph.exec_s", execSeconds * per, tracedRequests,
                   "NetExecResult::hostSeconds per request");
        report.add("graph.overhead_s", overhead * per, tracedRequests,
                   "run wall minus op seconds, per request");
        report.add("store.hit_rate", st.hitRate(), st.total.lookups);
        report.add("store.disk_fetches_per_lookup",
                   lookups > 0 ? st.total.diskFetches / lookups : 0.0,
                   st.total.lookups);
        report.add("store.page_hit_rate",
                   pages > 0 ? static_cast<double>(st.diskTier.pageHits) /
                                   static_cast<double>(pages)
                             : 0.0,
                   pages);
        report.add("store.disk_read_s", st.total.diskSeconds * perRequest,
                   k, "measured disk seconds per request");
        report.add("store.disk_fetch_p99_us",
                   1e6 * st.diskCostPercentile(0.99), st.total.diskFetches,
                   "power-of-two bucket bound");
        report.add("store.promoted_rows", st.total.promotedRows * perRequest,
                   k, "per request");
        report.add("store.demoted_rows", st.total.demotedRows * perRequest,
                   k, "per request");
        report.add("store.ns_per_lookup",
                   lookups > 0 ? 1e9 * slsSeconds * k / tracedRequests /
                                     lookups
                               : 0.0,
                   st.total.lookups,
                   "SparseLengthsSum seconds / lookups, traced requests");
        report.add("store.resident_mb",
                   static_cast<double>(store.residentBytes()) / (1u << 20),
                   1);
        const Tail t = tail(updateUs, 0.95);
        report.add("store.update_p50_us", median(updateUs), updateUs.size());
        report.add("store.update_tail_us", t.value, updateUs.size(),
                   pctName(t.pct));
        addTraceLayers(report, tracer, plain, traced);
        std::string error;
        if (!tracer.writeChromeTrace(opts.runDir + "/store-disk-seed" +
                                         std::to_string(opts.seed) +
                                         ".trace.json",
                                     &error)) {
            report.fail("store-disk: trace export: " + error);
        }
    }
    stack.reset();  // removes the page file
    for (const std::string& dir : pageDirs) {
        rmdir(dir.c_str());
    }
}

}  // namespace perfbench
