#include "graph/executor.h"

#include <chrono>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace recstack {
namespace {

/// Registry handles are looked up once; updates are lock-free.
obs::Counter&
runsCounter()
{
    static obs::Counter& c =
        obs::MetricsRegistry::global().counter("executor.runs");
    return c;
}

obs::Counter&
opsCounter()
{
    static obs::Counter& c =
        obs::MetricsRegistry::global().counter("executor.ops");
    return c;
}

/// Batch rows of an op's first output (post-run), -1 if unknowable.
int64_t
outputRows(const Workspace& ws, const Operator& op)
{
    if (op.outputs().empty() || !ws.has(op.outputs()[0])) {
        return -1;
    }
    const Tensor& t = ws.get(op.outputs()[0]);
    return t.shape().empty() ? -1 : t.dim(0);
}

}  // namespace

NetExecResult
Executor::run(const NetDef& net, Workspace& ws, const ExecOptions& opts)
{
    using Clock = std::chrono::steady_clock;

    // Kernels pick the width up through the calling thread's scope;
    // with numThreads == 0 the process default applies unchanged.
    IntraOpScope intra_op(opts.numThreads);

    const bool numerics = opts.mode != ExecMode::kProfileOnly;
    runsCounter().add();
    opsCounter().add(net.opCount());
    RECSTACK_SPAN("executor.run",
                  {{"ops", static_cast<int64_t>(net.opCount())}});
    NetExecResult result;
    result.records.reserve(net.opCount());
    const auto net_start = Clock::now();

    for (const auto& op : net.ops()) {
        obs::ScopedSpan op_span("op", op->type().c_str());
        op->inferShapes(ws);
        OpExecRecord record;
        if (numerics) {
            const auto start = Clock::now();
            op->run(ws);
            const auto end = Clock::now();
            record.hostSeconds =
                std::chrono::duration<double>(end - start).count();
        }
        if (op_span.active()) {
            op_span.arg("rows", outputRows(ws, *op));
        }
        if (opts.mode != ExecMode::kNumericOnly) {
            record.profile = op->lowerProfile(ws);
        }
        result.records.push_back(std::move(record));
    }

    // In kProfileOnly no kernel ran: report 0.0 instead of the
    // shape-inference + profile-lowering wall time (see header).
    if (numerics) {
        result.hostSeconds =
            std::chrono::duration<double>(Clock::now() - net_start)
                .count();
    }
    return result;
}

NetExecResult
Executor::run(const NetDef& net, Workspace& ws, ExecMode mode)
{
    ExecOptions opts;
    opts.mode = mode;
    return run(net, ws, opts);
}

NetExecResult
Executor::run(CompiledNet& net, Workspace& ws, Arena& arena, int64_t batch,
              const ExecOptions& opts)
{
    using Clock = std::chrono::steady_clock;

    IntraOpScope intra_op(opts.numThreads);
    runsCounter().add();
    opsCounter().add(net.opCount());
    RECSTACK_SPAN("executor.run",
                  {{"ops", static_cast<int64_t>(net.opCount())},
                   {"batch", batch}});
    const NetPlan* plan = nullptr;
    {
        RECSTACK_SPAN("executor.plan_bind", {{"batch", batch}});
        plan = &net.plan(ws, batch);
    }
    const bool numerics = opts.mode != ExecMode::kProfileOnly;

    // Execute with the kernels the plan was lowered for, regardless of
    // what RECSTACK_ISA resolves to by now (the scope wins the
    // per-thread dispatch in activeKernelIsa, and ops capture it
    // before fanning out to pool workers).
    IsaScope isa_scope(plan->kernelIsa);

    NetExecResult result;
    result.records.reserve(net.opCount());
    if (numerics) {
        RECSTACK_SPAN("executor.bind", {{"batch", batch}});
        net.bind(ws, arena, *plan);
    }
    const auto net_start = Clock::now();

    const auto& ops = net.ops();
    for (size_t i = 0; i < ops.size(); ++i) {
        obs::ScopedSpan op_span("op", ops[i]->type().c_str());
        OpExecRecord record;
        if (numerics) {
            const auto start = Clock::now();
            ops[i]->run(ws);
            const auto end = Clock::now();
            record.hostSeconds =
                std::chrono::duration<double>(end - start).count();
        }
        if (op_span.active()) {
            op_span.arg("rows", outputRows(ws, *ops[i]));
        }
        if (opts.mode != ExecMode::kNumericOnly) {
            // Lowered once at plan time (unique-code rewrite included).
            record.profile = plan->profiles[i];
        }
        result.records.push_back(std::move(record));
    }

    if (numerics) {
        result.hostSeconds =
            std::chrono::duration<double>(Clock::now() - net_start)
                .count();
    }
    return result;
}

}  // namespace recstack
