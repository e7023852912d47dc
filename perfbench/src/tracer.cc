#include "tracer.h"

#include <cstring>

#include "obs/span.h"
#include "obs/trace_export.h"

namespace perfbench {

namespace {
constexpr size_t kNotRecorded = static_cast<size_t>(-1);
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(&tracer), index_(kNotRecorded)
{
    if (!tracer.enabled_) {
        return;
    }
    index_ = tracer.spans_.size();
    tracer.spans_.push_back(
        {name, recstack::obs::nowNanos(), 0, tracer.open_});
    tracer.open_ = static_cast<int64_t>(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ == kNotRecorded) {
        return;
    }
    Span& span = tracer_->spans_[index_];
    span.endNs = recstack::obs::nowNanos();
    tracer_->open_ = span.parent;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layers() const
{
    std::vector<double> childSeconds(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            childSeconds[static_cast<size_t>(s.parent)] +=
                1e-9 * static_cast<double>(s.endNs - s.startNs);
        }
    }
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const char* dot = std::strchr(s.name, '.');
        const std::string layer =
            dot ? std::string(s.name, dot) : std::string(s.name);
        const double total = 1e-9 * static_cast<double>(s.endNs - s.startNs);
        LayerTime& lt = out[layer];
        lt.selfSeconds += total - childSeconds[i];
        ++lt.spans;
    }
    return out;
}

double
Tracer::rootSeconds() const
{
    double total = 0.0;
    for (const Span& s : spans_) {
        if (s.parent < 0) {
            total += 1e-9 * static_cast<double>(s.endNs - s.startNs);
        }
    }
    return total;
}

bool
Tracer::writeChromeTrace(const std::string& path, std::string* error) const
{
    recstack::obs::TraceSnapshot snap;
    snap.spans.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        recstack::obs::SpanRecord rec;
        std::strncpy(rec.name, s.name, sizeof(rec.name) - 1);
        rec.startNs = s.startNs;
        rec.endNs = s.endNs;
        rec.tid = 1;
        rec.numArgs = 2;
        std::strncpy(rec.args[0].key, "id", sizeof(rec.args[0].key) - 1);
        rec.args[0].value = static_cast<int64_t>(i);
        std::strncpy(rec.args[1].key, "parent",
                     sizeof(rec.args[1].key) - 1);
        rec.args[1].value = s.parent;
        snap.spans.push_back(rec);
    }
    return recstack::obs::writeChromeTrace(path, snap, error);
}

}  // namespace perfbench
