/**
 * @file
 * characterize: the figure-regeneration grid. A pass sets up a fresh
 * SweepCache over allPlatformsWithPim() (building every model is the
 * setup), then fills the model x platform x batch grid column by
 * column, single thread. The modelled results are checked against
 * digests kept in perfbench/reference/; the seed only orders the
 * platforms within each column, so one reference serves every seed.
 */

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/sweep.h"
#include "platform/platform.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace recstack;

/// The characterization seed of every figure bench.
constexpr uint64_t kSweepSeed = 42;

/** One (model, batch) column, simulated on every platform. */
struct Column {
    ModelId model;
    int64_t batch;
};

/**
 * All eight models. One DIN column at batch 1 costs about as much as
 * the six light models at batches 1, 256 and 4096 together, so DIN and
 * DIEN stay at batch 1 to keep a pass near five seconds.
 */
std::vector<Column>
gridColumns(bool tiny)
{
    std::vector<Column> cols;
    for (ModelId m : allModels()) {
        const bool attention = m == ModelId::kDIN || m == ModelId::kDIEN;
        std::vector<int64_t> batches = {1, 256, 4096};
        if (tiny) {
            batches = {1, 16};
        } else if (attention) {
            batches = {1};
        }
        for (int64_t b : batches) {
            cols.push_back({m, b});
        }
    }
    return cols;
}

ModelOptions
gridOptions(bool tiny)
{
    return tiny ? tinyOptions() : ModelOptions{};
}

/** FNV-1a over the fields a figure reads from a RunResult. */
class Digest
{
  public:
    void bytes(const void* p, size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ = (h_ ^ c[i]) * 1099511628211ull;
        }
    }
    template <typename T> void pod(T v) { bytes(&v, sizeof(v)); }
    void str(const std::string& s)
    {
        pod(s.size());
        bytes(s.data(), s.size());
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

uint64_t
digest(const RunResult& r)
{
    Digest d;
    d.pod(static_cast<int>(r.model));
    d.str(r.platformName);
    d.pod(static_cast<int>(r.kind));
    d.pod(r.batch);
    d.pod(r.seconds);
    for (const auto& [op, s] : r.breakdown.byType()) {
        d.str(op);
        d.pod(s);
    }
    const CpuCounters& c = r.counters;
    for (uint64_t v :
         {c.uopsRetired, c.avxUopsRetired, c.scalarUopsRetired, c.branches,
          c.branchMispredicts, c.l1dAccesses, c.l1dHits, c.l2Hits, c.l3Hits,
          c.dramAccesses, c.dramBytes, c.icacheAccesses, c.icacheMisses,
          c.uopsFromDsb, c.uopsFromMite, c.dsbSwitches}) {
        d.pod(v);
    }
    for (double v :
         {c.cycles, c.retireCycles, c.feLatencyCycles,
          c.feBandwidthDsbCycles, c.feBandwidthMiteCycles, c.badSpecCycles,
          c.beCoreCycles, c.beMemL2Cycles, c.beMemL3Cycles,
          c.beMemDramLatCycles, c.beMemDramBwCycles, c.dramCongestedCycles,
          c.storeCycles}) {
        d.pod(v);
    }
    d.pod(r.gpu.kernelSeconds);
    d.pod(r.gpu.transferSeconds);
    d.pod(r.gpu.totalSeconds);
    d.pod(r.pim.offloadSeconds);
    d.pod(r.pim.lookups);
    d.pod(r.pim.uploadBytes);
    d.pod(r.pim.downloadBytes);
    return d.value();
}

std::string
pointKey(bool tiny, ModelId m, size_t platform, int64_t batch)
{
    return std::string(tiny ? "tiny " : "full ") + modelName(m) + " " +
           std::to_string(platform) + " " + std::to_string(batch);
}

std::map<std::string, uint64_t>
loadReference(const std::string& path)
{
    std::map<std::string, uint64_t> ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string size, model, platform, batch, hex;
        if (fields >> size >> model >> platform >> batch >> hex) {
            ref[size + " " + model + " " + platform + " " + batch] =
                std::stoull(hex, nullptr, 16);
        }
    }
    return ref;
}

const char*
simSpanName(PlatformKind kind)
{
    switch (kind) {
    case PlatformKind::kCpu:
        return "uarch.sim";
    case PlatformKind::kGpu:
        return "gpu.sim";
    case PlatformKind::kPim:
        return "pim.sim";
    }
    return "uarch.sim";
}

}  // namespace

void
runCharacterize(const Options& opts, Report& report)
{
    setIntraOpThreads(1);
    // A fixed mmap threshold: glibc otherwise raises it after the first
    // pass frees its large blocks, and the later passes then peak about
    // 13 MB higher depending on the order of those frees.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const bool tiny = opts.tiny;
    const std::vector<Platform> platforms = allPlatformsWithPim();
    const ModelOptions modelOpts = gridOptions(tiny);
    const auto reference = loadReference(opts.reference);

    // The seed orders the platforms within each column. Columns keep
    // the paper's model order: how the heap grows, and so the peak RSS,
    // depends on the column order.
    const std::vector<Column> order = gridColumns(tiny);
    std::vector<std::vector<size_t>> platformOrder(order.size());
    Rng rng(subSeed(opts.seed, 1));
    for (std::vector<size_t>& po : platformOrder) {
        for (size_t p = 0; p < platforms.size(); ++p) {
            po.push_back(p);
        }
        for (size_t i = po.size(); i > 1; --i) {
            std::swap(po[i - 1], po[rng.nextBounded(i)]);
        }
    }
    const double pointsPerPass =
        static_cast<double>(order.size() * platforms.size());

    bool corruptPending = opts.corrupt;
    const auto check = [&](const RunResult& r, size_t p) {
        report.attempt();
        uint64_t got = digest(r);
        if (corruptPending) {
            got ^= 1;
            corruptPending = false;
        }
        const std::string key = pointKey(tiny, r.model, p, r.batch);
        const auto it = reference.find(key);
        if (it == reference.end()) {
            report.fail("characterize: no reference digest for " + key);
        } else if (it->second != got) {
            report.fail("characterize: digest differs at " + key);
        }
    };

    Tracer tracer;
    std::vector<double> setups;
    // Latencies are per column; items and timed seconds per pass.
    Samples plain, traced;
    double lowerSeconds = 0.0;
    double simSeconds[3] = {0.0, 0.0, 0.0};
    double kernelsSimulated = 0.0;
    double dinDienSeconds = 0.0;
    const auto start = Clock::now();
    uint64_t passes = 0;
    // Whole passes: stop when another would overrun the budget by more
    // than half a pass (at least one pass of each kind).
    while (passes < (opts.trace ? 2u : 1u) ||
           secondsSince(start) + 0.5 * secondsSince(start) / passes <
               opts.seconds) {
        const bool tracedPass = tracedTurn(opts, passes++);
        tracer.enable(tracedPass);
        Samples& samples = tracedPass ? traced : plain;
        Tracer::Scope passSpan(tracer, "bench.pass");
        auto t0 = Clock::now();
        std::unique_ptr<SweepCache> sweep;
        {
            Tracer::Scope s(tracer, "core.setup");
            sweep = std::make_unique<SweepCache>(platforms, modelOpts,
                                                 kSweepSeed);
            for (const Column& col : order) {
                sweep->characterizer().model(col.model);
            }
        }
        setups.push_back(secondsSince(t0));

        double passSeconds = 0.0;
        for (size_t c = 0; c < order.size(); ++c) {
            const Column& col = order[c];
            Tracer::Scope colSpan(tracer, "bench.column");
            t0 = Clock::now();
            if (!tracedPass) {
                for (size_t p : platformOrder[c]) {
                    check(sweep->get(col.model, p, col.batch), p);
                }
            } else {
                // The two halves of SweepCache::get, timed apart.
                uint64_t inBytes = 0;
                size_t inBlobs = 0;
                std::vector<KernelProfile> profiles;
                const auto tl = Clock::now();
                {
                    Tracer::Scope s(tracer, "graph.lower");
                    profiles = sweep->characterizer().profiles(
                        col.model, col.batch, &inBytes, &inBlobs);
                }
                lowerSeconds += secondsSince(tl);
                for (size_t p : platformOrder[c]) {
                    const Platform& plat = platforms[p];
                    const auto ts = Clock::now();
                    RunResult r;
                    {
                        Tracer::Scope s(tracer, simSpanName(plat.kind));
                        r = simulateProfiles(profiles, plat, col.model,
                                             col.batch, inBytes, inBlobs,
                                             kSweepSeed);
                    }
                    simSeconds[static_cast<int>(plat.kind)] +=
                        secondsSince(ts);
                    if (plat.kind == PlatformKind::kCpu) {
                        // Warm-up pass plus measured pass.
                        kernelsSimulated +=
                            2.0 * static_cast<double>(profiles.size());
                    }
                    check(r, p);
                }
            }
            const double s = secondsSince(t0);
            passSeconds += s;
            samples.latencies.push_back(s);
            if (tracedPass && (col.model == ModelId::kDIN ||
                               col.model == ModelId::kDIEN)) {
                dinDienSeconds += s;
            }
        }
        samples.items.push_back(pointsPerPass);
        samples.timed.push_back(passSeconds);
    }
    addEndToEnd(report, plain, 0.75);
    report.add("setup_s", median(setups), setups.size(),
               "SweepCache + 8 model builds, one per pass");

    if (opts.trace) {
        const uint64_t tracedPasses = traced.items.size();
        const double per = 1.0 / static_cast<double>(tracedPasses);
        const double cpuSim = simSeconds[static_cast<int>(PlatformKind::kCpu)];
        double gridSeconds = 0.0;
        for (double s : traced.timed) {
            gridSeconds += s;
        }
        report.add("graph.lower_s", lowerSeconds * per, tracedPasses,
                   "per pass");
        report.add("uarch.sim_s", cpuSim * per, tracedPasses, "per pass");
        report.add("gpu.sim_s",
                   simSeconds[static_cast<int>(PlatformKind::kGpu)] * per,
                   tracedPasses, "per pass");
        report.add("pim.sim_s",
                   simSeconds[static_cast<int>(PlatformKind::kPim)] * per,
                   tracedPasses, "per pass");
        report.add("uarch.kernels_simulated", kernelsSimulated * per,
                   tracedPasses, "per pass, warm-up + measured");
        report.add("uarch.us_per_kernel",
                   kernelsSimulated > 0 ? 1e6 * cpuSim / kernelsSimulated
                                        : 0.0,
                   static_cast<uint64_t>(kernelsSimulated));
        report.add("uarch.din_dien_share", dinDienSeconds / gridSeconds,
                   tracedPasses, "of grid seconds");
        addTraceLayers(report, tracer, plain, traced);
        std::string error;
        if (!tracer.writeChromeTrace(
                opts.runDir + "/characterize-seed" +
                    std::to_string(opts.seed) + ".trace.json",
                &error)) {
            report.fail("characterize: trace export: " + error);
        }
    }
}

void
writeCharacterizeReference(const std::string& path)
{
    setIntraOpThreads(1);
    std::ofstream out(path);
    out << "# Digests of the modelled RunResults of the characterize grid\n"
           "# (size model platform batch fnv1a64). Regenerate with\n"
           "# perfbench --write-reference only when a change is meant to\n"
           "# move modelled results.\n";
    const std::vector<Platform> platforms = allPlatformsWithPim();
    for (bool tiny : {true, false}) {
        SweepCache sweep(platforms, gridOptions(tiny), kSweepSeed);
        for (const Column& col : gridColumns(tiny)) {
            for (size_t p = 0; p < platforms.size(); ++p) {
                char hex[24];
                std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                              digest(sweep.get(col.model, p, col.batch)));
                out << pointKey(tiny, col.model, p, col.batch) << " " << hex
                    << "\n";
            }
        }
    }
}

}  // namespace perfbench
