#include <cstdio>
#include <cstring>
#include <map>

#include "ops/workspace.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace perfbench {

double
Samples::rate() const
{
    double n = 0.0;
    double sec = 0.0;
    for (size_t i = 0; i < items.size(); ++i) {
        n += items[i];
        sec += timed[i];
    }
    return sec > 0.0 ? n / sec : 0.0;
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 of (seed, stream): distinct streams per purpose.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const void*
tensorBytes(const recstack::Tensor& t)
{
    switch (t.dtype()) {
    case recstack::DType::kFloat32:
        return t.data<float>();
    case recstack::DType::kInt32:
        return t.data<int32_t>();
    case recstack::DType::kInt64:
        return t.data<int64_t>();
    }
    return nullptr;
}

bool
bitEqual(const recstack::Tensor& a, const recstack::Tensor& b)
{
    return a.shape() == b.shape() && a.dtype() == b.dtype() &&
           std::memcmp(tensorBytes(a), tensorBytes(b), a.byteSize()) == 0;
}

void
installBlobs(const recstack::Workspace& from, recstack::Workspace& to)
{
    for (const std::string& name : from.names()) {
        to.set(name, from.get(name));
    }
}

void
addEndToEnd(Report& report, const Samples& untraced, double tailPct)
{
    const uint64_t n = untraced.latencies.size();
    std::vector<double> ms;
    ms.reserve(n);
    for (double s : untraced.latencies) {
        ms.push_back(1e3 * s);
    }
    const Tail t = tail(ms, tailPct);
    const std::vector<double> rates =
        sliceRates(untraced.items, untraced.timed);
    std::string note = "median of slices";
    for (double r : rates) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.4g", r);
        note += buf;
    }
    report.add("throughput_per_s", median(rates), untraced.items.size(),
               note);
    report.add("latency_p50_ms", median(ms), n);
    report.add("latency_tail_ms", t.value, n, pctName(t.pct));
}

void
addTraceLayers(Report& report, const Tracer& tracer, const Samples& untraced,
               const Samples& traced)
{
    const double wall = tracer.rootSeconds();
    const auto layers = tracer.layers();
    for (const MetricSpec& spec : catalog()) {
        const std::string name = spec.name;
        const std::string prefix = "trace.self_share.";
        if (name.rfind(prefix, 0) != 0) {
            continue;
        }
        const auto it = layers.find(name.substr(prefix.size()));
        if (it != layers.end() && wall > 0.0) {
            report.add(name, it->second.selfSeconds / wall,
                       it->second.spans);
        }
    }
    const double plain = untraced.rate();
    report.add("trace.overhead_share",
               plain > 0.0 ? 1.0 - traced.rate() / plain : 0.0,
               traced.items.size(), "1 - traced/untraced throughput");
}

void
addOpMetrics(Report& report, const std::map<std::string, double>& opSeconds,
             double fcFlops, double fcSeconds, uint64_t requests)
{
    if (requests == 0) {
        return;
    }
    const double per = 1.0 / static_cast<double>(requests);
    std::map<std::string, double> rest = opSeconds;
    for (const MetricSpec& spec : catalog()) {
        const std::string name = spec.name;
        if (name.rfind("ops.", 0) != 0 || name == "ops.other_s" ||
            name.size() < 7 || name.compare(name.size() - 2, 2, "_s") != 0) {
            continue;
        }
        const std::string type = name.substr(4, name.size() - 6);
        const auto it = rest.find(type);
        if (it != rest.end()) {
            report.add(name, it->second * per, requests,
                       "kernel seconds per request");
            rest.erase(it);
        }
    }
    double other = 0.0;
    for (const auto& [type, s] : rest) {
        other += s;
    }
    report.add("ops.other_s", other * per, requests,
               "kernel seconds per request, op types not listed");
    if (fcSeconds > 0.0) {
        report.add("ops.fc_gflops", 1e-9 * fcFlops / fcSeconds, requests,
                   "flops computed from plan shapes");
    }
}

}  // namespace perfbench
