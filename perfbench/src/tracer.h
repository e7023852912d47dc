#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

/**
 * @file
 * The benchmark's own span recorder. Each span wraps one public call
 * into a library layer (name "<layer>.<call>", e.g. "graph.run" around
 * Executor::run), records start, end and the enclosing span, and stays
 * in memory until the run writes it out as a Chrome trace through the
 * library's obs exporter. The library's internal spans stay off, so a
 * traced run measures the layers from outside, as a caller sees them.
 *
 * Spans are recorded from the benchmark's client thread only; the
 * library's own worker threads are inside the spans that started them.
 * A disabled tracer costs one branch per span.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    /** Turn recording on (spans opened while off are not recorded). */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** RAII span; @c name must outlive the tracer (a literal). */
    class Scope
    {
      public:
        Scope(Tracer& tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        size_t index_;
    };

    /** Self (span minus direct children) seconds per layer. */
    struct LayerTime {
        double selfSeconds = 0.0;
        uint64_t spans = 0;
    };
    /** Keyed by the layer, the span-name prefix before the first '.'. */
    std::map<std::string, LayerTime> layers() const;

    /** Seconds covered by root spans (the traced wall time). */
    double rootSeconds() const;

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string& path,
                          std::string* error) const;

    size_t size() const { return spans_.size(); }

  private:
    struct Span {
        const char* name;
        uint64_t startNs;
        uint64_t endNs;
        int64_t parent;  ///< index of the enclosing span, -1 for roots
    };

    bool enabled_ = false;
    std::vector<Span> spans_;
    int64_t open_ = -1;  ///< innermost open span
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
