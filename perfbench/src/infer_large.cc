/**
 * @file
 * infer-large: a closed loop with one client at intra-op width 1,
 * sending compiled kNumericOnly batch-256 requests round-robin over
 * WnD, DIN and DIEN at full size with dense tables. Every output is
 * compared byte for byte with the interpreted Executor::run(NetDef)
 * outputs on the same inputs, computed once after setup.
 */

#include <memory>

#include "common/thread_pool.h"
#include "graph/executor.h"
#include "models/model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace recstack;

constexpr int kInputsPerModel = 2;

/** One served model: weights, compiled form and its scratch arena. */
struct Served {
    explicit Served(ModelId id, const ModelOptions& opts)
        : model(buildModel(id, opts))
    {
    }
    Model model;  ///< must outlive `compiled`, which references its net
    Workspace ws;
    std::shared_ptr<CompiledNet> compiled;
    Arena arena;
    /// FC flops per compiled op, computed from the plan's shapes.
    std::vector<double> fcFlops;
};

bool
isFc(const std::string& type)
{
    return type == "FC" || type == "FusedFC";
}

}  // namespace

void
runInferLarge(const Options& opts, Report& report)
{
    setIntraOpThreads(1);
    const std::vector<ModelId> ids = {ModelId::kWnD, ModelId::kDIN,
                                      ModelId::kDIEN};
    const ModelOptions modelOpts = opts.tiny ? tinyOptions() : ModelOptions{};
    const int64_t batch = opts.tiny ? 16 : 256;
    ExecOptions exec;
    exec.mode = ExecMode::kNumericOnly;
    exec.numThreads = 1;

    // Request inputs, generated before anything is timed.
    std::vector<std::vector<Workspace>> inputs(ids.size());
    for (size_t m = 0; m < ids.size(); ++m) {
        const Model model = buildModel(ids[m], modelOpts);
        for (int i = 0; i < kInputsPerModel; ++i) {
            BatchGenerator gen(model.workload,
                               subSeed(opts.seed, 10 * m + i));
            gen.materialize(inputs[m].emplace_back(), batch);
        }
    }

    // Setup: build, initialize weights, compile and plan each model.
    std::vector<std::unique_ptr<Served>> served;
    std::vector<double> setups;
    for (int rep = 0; rep < 3; ++rep) {
        served.clear();
        const auto t0 = Clock::now();
        for (size_t m = 0; m < ids.size(); ++m) {
            auto s = std::make_unique<Served>(ids[m], modelOpts);
            s->model.initParams(s->ws);
            s->compiled = CompiledNet::compile(s->model.net);
            installBlobs(inputs[m][0], s->ws);
            const NetPlan& plan = s->compiled->plan(s->ws, batch);
            for (size_t i = 0; i < s->compiled->opCount(); ++i) {
                s->fcFlops.push_back(
                    isFc(s->compiled->ops()[i]->type())
                        ? static_cast<double>(plan.profiles[i].fmaFlops)
                        : 0.0);
            }
            served.push_back(std::move(s));
        }
        setups.push_back(secondsSince(t0));
    }
    report.add("setup_s", median(setups), setups.size(),
               "build + initParams + compile + plan of WnD, DIN, DIEN");

    // Reference outputs from the interpreted executor, then one
    // untimed compiled run per model to size its arena.
    std::vector<std::vector<std::vector<Tensor>>> ref(ids.size());
    for (size_t m = 0; m < ids.size(); ++m) {
        Served& s = *served[m];
        for (int i = 0; i < kInputsPerModel; ++i) {
            installBlobs(inputs[m][i], s.ws);
            Executor::run(s.model.net, s.ws, exec);
            auto& outs = ref[m].emplace_back();
            for (const std::string& name : s.model.net.externalOutputs()) {
                outs.push_back(s.ws.get(name));
            }
        }
        Executor::run(*s.compiled, s.ws, s.arena, batch, exec);
    }

    Tracer tracer;
    Samples plain, traced;
    std::map<std::string, double> opSeconds;
    double fcFlops = 0.0, fcSeconds = 0.0, overhead = 0.0, execSeconds = 0.0;
    bool corruptPending = opts.corrupt;
    const auto start = Clock::now();
    for (uint64_t k = 0; secondsSince(start) < opts.seconds; ++k) {
        const bool tracedRequest = tracedTurn(opts, k);
        tracer.enable(tracedRequest);
        Tracer::Scope reqSpan(tracer, "bench.request");
        const size_t m = k % ids.size();
        const size_t i = (k / ids.size()) % kInputsPerModel;
        Served& s = *served[m];
        installBlobs(inputs[m][i], s.ws);
        report.attempt();
        NetExecResult r;
        const auto t0 = Clock::now();
        try {
            Tracer::Scope runSpan(tracer, "graph.run");
            r = Executor::run(*s.compiled, s.ws, s.arena, batch, exec);
        } catch (const std::exception& e) {
            report.fail(std::string("infer-large: ") + e.what());
            continue;
        }
        const double wall = secondsSince(t0);

        const auto& outNames = s.model.net.externalOutputs();
        bool equal = true;
        for (size_t o = 0; o < outNames.size(); ++o) {
            Tensor& out = s.ws.get(outNames[o]);
            if (corruptPending) {
                out.data<float>()[0] += 1.0f;
                corruptPending = false;
            }
            equal = equal && bitEqual(out, ref[m][i][o]);
        }
        if (!equal) {
            report.fail(std::string("infer-large: compiled ") +
                        modelName(ids[m]) +
                        " output differs from the interpreted run");
        }

        (tracedRequest ? traced : plain)
            .add(wall, static_cast<double>(batch), wall);
        if (tracedRequest) {
            double opSum = 0.0;
            for (size_t o = 0; o < r.records.size(); ++o) {
                const double sec = r.records[o].hostSeconds;
                opSeconds[s.compiled->ops()[o]->type()] += sec;
                opSum += sec;
                if (s.fcFlops[o] > 0.0) {
                    fcFlops += s.fcFlops[o];
                    fcSeconds += sec;
                }
            }
            overhead += wall - opSum;
            execSeconds += r.hostSeconds;
        }
    }
    addEndToEnd(report, plain, 0.9);

    const uint64_t tracedRequests = traced.items.size();
    if (opts.trace && tracedRequests > 0) {
        const double per = 1.0 / static_cast<double>(tracedRequests);
        addOpMetrics(report, opSeconds, fcFlops, fcSeconds, tracedRequests);
        report.add("graph.exec_s", execSeconds * per, tracedRequests,
                   "NetExecResult::hostSeconds per request");
        report.add("graph.overhead_s", overhead * per, tracedRequests,
                   "run wall minus op seconds, per request");
        addTraceLayers(report, tracer, plain, traced);
        std::string error;
        if (!tracer.writeChromeTrace(opts.runDir + "/infer-large-seed" +
                                         std::to_string(opts.seed) +
                                         ".trace.json",
                                     &error)) {
            report.fail("infer-large: trace export: " + error);
        }
    }
}

}  // namespace perfbench
