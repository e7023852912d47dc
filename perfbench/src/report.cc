#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>&
catalog()
{
    static const std::vector<MetricSpec> specs = {
        // End to end (untraced run). See METRICS.md.
        {"setup_s", "s", true},
        {"throughput_per_s", "1/s", true},
        {"latency_p50_ms", "ms", true},
        {"latency_tail_ms", "ms", true},
        {"peak_rss_mb", "MB", true},

        // core / graph / uarch / gpu / pim: characterize.
        {"graph.lower_s", "s", false},
        {"uarch.sim_s", "s", false},
        {"gpu.sim_s", "s", false},
        {"pim.sim_s", "s", false},
        {"uarch.kernels_simulated", "count", false},
        {"uarch.us_per_kernel", "us", false},
        {"uarch.din_dien_share", "ratio", false},

        // ops / graph: infer-large (and the RM2 net of store-disk).
        {"ops.FusedFC_s", "s", false},
        {"ops.FC_s", "s", false},
        {"ops.FusedGRUStep_s", "s", false},
        {"ops.SparseLengthsSum_s", "s", false},
        {"ops.Gather_s", "s", false},
        {"ops.BatchMatMul_s", "s", false},
        {"ops.Softmax_s", "s", false},
        {"ops.Concat_s", "s", false},
        {"ops.Mul_s", "s", false},
        {"ops.Sub_s", "s", false},
        {"ops.Slice_s", "s", false},
        {"ops.Reshape_s", "s", false},
        {"ops.Sigmoid_s", "s", false},
        {"ops.other_s", "s", false},
        {"ops.fc_gflops", "GFLOP/s", false},
        {"graph.exec_s", "s", false},
        {"graph.overhead_s", "s", false},

        // serve / common / workload / store: serve-small.
        {"serve.outside_exec_share", "ratio", false},
        {"queue.batches", "count", false},
        {"queue.mean_batch", "samples", false},
        {"queue.launch_batch_full", "count", false},
        {"queue.launch_window_expired", "count", false},
        {"queue.launch_drain", "count", false},
        {"pool.parallel_for", "count", false},
        {"pool.chunks", "count", false},
        {"pool.dispatch_us", "us", false},
        {"workload.materialize_us", "us", false},

        // store: serve-small (DRAM tiers) and store-disk (disk tier).
        {"store.hit_rate", "ratio", false},
        {"store.disk_fetches_per_lookup", "ratio", false},
        {"store.page_hit_rate", "ratio", false},
        {"store.disk_read_s", "s", false},
        {"store.disk_fetch_p99_us", "us", false},
        {"store.promoted_rows", "count", false},
        {"store.demoted_rows", "count", false},
        {"store.ns_per_lookup", "ns", false},
        {"store.resident_mb", "MB", false},
        {"store.update_p50_us", "us", false},
        {"store.update_tail_us", "us", false},

        // The traced run itself: self time per layer, tracing cost.
        {"trace.overhead_share", "ratio", false},
        {"trace.self_share.bench", "ratio", false},
        {"trace.self_share.core", "ratio", false},
        {"trace.self_share.graph", "ratio", false},
        {"trace.self_share.uarch", "ratio", false},
        {"trace.self_share.gpu", "ratio", false},
        {"trace.self_share.pim", "ratio", false},
        {"trace.self_share.serve", "ratio", false},
        {"trace.self_share.store", "ratio", false},
        {"trace.self_share.workload", "ratio", false},
        {"trace.self_share.common", "ratio", false},
    };
    return specs;
}

namespace {

const MetricSpec*
findSpec(const std::string& name)
{
    for (const MetricSpec& s : catalog()) {
        if (name == s.name) {
            return &s;
        }
    }
    return nullptr;
}

}  // namespace

void
Report::add(const std::string& name, double value, uint64_t samples,
            const std::string& note)
{
    const MetricSpec* spec = findSpec(name);
    if (spec == nullptr) {
        throw std::logic_error("metric not in catalog: " + name);
    }
    for (const Metric& m : metrics_) {
        if (m.name == name) {
            throw std::logic_error("metric added twice: " + name);
        }
    }
    metrics_.push_back({name, value, spec->unit, samples, note});
}

void
Report::fail(const std::string& why)
{
    ++failed_;
    if (reasons_.size() < 8) {
        reasons_.push_back(why);
    }
}

void
Report::completePerLayer()
{
    for (const MetricSpec& s : catalog()) {
        if (s.endToEnd) {
            continue;
        }
        bool present = false;
        for (const Metric& m : metrics_) {
            present = present || m.name == s.name;
        }
        if (!present) {
            metrics_.push_back({s.name, 0.0, s.unit, 0,
                                "layer not exercised by this workload"});
        }
    }
}

std::string
Report::humanText() const
{
    std::string out;
    char line[512];
    for (const Metric& m : metrics_) {
        std::snprintf(line, sizeof(line), "METRIC %-32s %14.6g %-8s n=%llu%s%s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      static_cast<unsigned long long>(m.samples),
                      m.note.empty() ? "" : "  ", m.note.c_str());
        out += line;
    }
    const double rate =
        attempted_ > 0 ? static_cast<double>(failed_) /
                             static_cast<double>(attempted_)
                       : 1.0;
    std::snprintf(line, sizeof(line),
                  "METRIC %-32s %14.6g %-8s n=%llu  failed=%llu\n",
                  "error_rate", rate, "ratio",
                  static_cast<unsigned long long>(attempted_),
                  static_cast<unsigned long long>(failed_));
    out += line;
    for (const std::string& r : reasons_) {
        out += "FAILED " + r + "\n";
    }
    return out;
}

std::string
Report::resultJson(bool trace) const
{
    std::string out = "{\"correct\": ";
    out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& s : catalog()) {
        if (s.endToEnd == trace) {
            continue;
        }
        for (const Metric& m : metrics_) {
            if (m.name != s.name) {
                continue;
            }
            out += first ? "" : ", ";
            first = false;
            out += jsonString(m.name) + ": {\"value\": " +
                   jsonNumber(m.value) + ", \"unit\": " +
                   jsonString(m.unit) + "}";
        }
    }
    out += "}}";
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

Tail
tail(const std::vector<double>& v, double preferred)
{
    const double n = static_cast<double>(v.size());
    double pct = 0.5;
    for (double p : {preferred, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5}) {
        if (p <= preferred && n * (1.0 - p) >= 10.0 - 1e-9) {
            pct = p;
            break;
        }
    }
    return {percentile(v, pct), pct};
}

std::string
pctName(double pct)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%g", pct * 100.0);
    return buf;
}

std::vector<double>
sliceRates(const std::vector<double>& items,
           const std::vector<double>& seconds)
{
    const size_t n = std::min(items.size(), seconds.size());
    const size_t groups = std::min<size_t>(10, n);
    std::vector<double> rates;
    for (size_t g = 0; g < groups; ++g) {
        double it = 0.0;
        double s = 0.0;
        for (size_t i = g * n / groups; i < (g + 1) * n / groups; ++i) {
            it += items[i];
            s += seconds[i];
        }
        if (s > 0.0) {
            rates.push_back(it / s);
        }
    }
    return rates;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace perfbench
