#include "common/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace recstack {
namespace {

/// Workers a single process may ever spawn; far above any sane
/// RECSTACK_NUM_THREADS, this only guards against typos like "10000".
constexpr int kMaxPoolThreads = 256;

/// Work units one chunk must carry before a kernel fans out
/// (grainForCost): below it, dispatch latency outweighs the split.
constexpr uint64_t kMinChunkCost = 16384;

/// Set on pool worker threads so nested parallelFor degrades to
/// serial inline execution instead of deadlocking on its own pool.
thread_local bool tls_in_pool_worker = false;

/// Per-thread width override installed by IntraOpScope (0 = none).
thread_local int tls_intra_op_width = 0;

int
envDefaultThreads()
{
    static const int cached = [] {
        if (const char* env = std::getenv("RECSTACK_NUM_THREADS")) {
            char* end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end != env && *end == '\0' && v >= 1) {
                return static_cast<int>(
                    std::min<long>(v, kMaxPoolThreads));
            }
            RECSTACK_WARN("ignoring invalid RECSTACK_NUM_THREADS='"
                          << env << "'");
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 1 ? static_cast<int>(hw) : 1;
    }();
    return cached;
}

/** Process-wide reused-worker pool executing chunk tasks. */
class Pool
{
  public:
    static Pool& instance()
    {
        static Pool* pool = new Pool();  // intentionally leaked:
        return *pool;  // workers may outlive static destruction order
    }

    void run(int64_t begin, int64_t end, int64_t grain, int width,
             const RangeFn& fn)
    {
        const int64_t n = end - begin;
        grain = std::max<int64_t>(1, grain);
        const int64_t max_parts = (n + grain - 1) / grain;
        const int parts = static_cast<int>(std::min<int64_t>(
            std::max(1, width), max_parts));
        if (parts <= 1 || tls_in_pool_worker) {
            fn(begin, end);
            return;
        }
        {
            static obs::Counter& chunks =
                obs::MetricsRegistry::global().counter("pool.chunks");
            chunks.add(static_cast<uint64_t>(parts));
        }
        ensureWorkers(parts - 1);

        // Static partition: `parts` contiguous chunks of near-equal
        // size, a pure function of (begin, end, grain, width).
        const int64_t base = n / parts;
        const int64_t rem = n % parts;
        Completion done(parts - 1);
        {
            std::lock_guard<std::mutex> lock(mu_);
            int64_t lo = begin;
            for (int p = 0; p < parts - 1; ++p) {
                const int64_t hi = lo + base + (p < rem ? 1 : 0);
                tasks_.push_back(Task{&fn, lo, hi, &done});
                lo = hi;
            }
        }
        cv_.notify_all();
        // The caller owns the last chunk.
        {
            RECSTACK_SPAN("pool.chunk",
                          {{"lo", end - base}, {"hi", end}});
            fn(end - base, end);
        }
        done.wait();
    }

  private:
    struct Completion {
        explicit Completion(int count) : remaining(count) {}

        void finishOne()
        {
            std::lock_guard<std::mutex> lock(mu);
            if (--remaining == 0) {
                cv.notify_one();
            }
        }

        void wait()
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [this] { return remaining == 0; });
        }

        std::mutex mu;
        std::condition_variable cv;
        int remaining;
    };

    struct Task {
        const RangeFn* fn;
        int64_t lo;
        int64_t hi;
        Completion* done;
    };

    Pool() = default;

    void ensureWorkers(int needed)
    {
        needed = std::min(needed, kMaxPoolThreads);
        std::lock_guard<std::mutex> lock(mu_);
        while (static_cast<int>(workers_.size()) < needed) {
            workers_.emplace_back([this] { workerLoop(); });
        }
    }

    void workerLoop()
    {
        tls_in_pool_worker = true;
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [this] { return !tasks_.empty(); });
                task = tasks_.front();
                tasks_.pop_front();
            }
            {
                // Scoped so the span commits before finishOne() can
                // release a caller that might snapshot the buffer.
                RECSTACK_SPAN("pool.chunk",
                              {{"lo", task.lo}, {"hi", task.hi}});
                (*task.fn)(task.lo, task.hi);
            }
            task.done->finishOne();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Task> tasks_;
    std::vector<std::thread> workers_;  // detached on process exit
};

/// Process default width; 0 = fall back to the environment default.
std::mutex g_default_mu;
int g_default_width = 0;

int
processDefaultThreads()
{
    {
        std::lock_guard<std::mutex> lock(g_default_mu);
        if (g_default_width > 0) {
            return g_default_width;
        }
    }
    return envDefaultThreads();
}

}  // namespace

void
parallelFor(int64_t begin, int64_t end, int64_t grain, const RangeFn& fn)
{
    if (end <= begin) {
        return;
    }
    const int width = intraOpThreads();
    if (width <= 1) {
        // Serial path stays span-free: this is the default width and
        // must carry zero instrumentation cost.
        fn(begin, end);
        return;
    }
    {
        static obs::Counter& calls =
            obs::MetricsRegistry::global().counter("pool.parallel_for");
        calls.add();
    }
    Pool::instance().run(begin, end, grain, width, fn);
}

int64_t
grainForCost(uint64_t cost_per_item)
{
    cost_per_item = std::max<uint64_t>(1, cost_per_item);
    return static_cast<int64_t>(
        std::max<uint64_t>(1, kMinChunkCost / cost_per_item));
}

void
setIntraOpThreads(int num_threads)
{
    RECSTACK_CHECK(num_threads >= 0,
                   "intra-op thread count must be >= 0, got "
                       << num_threads);
    std::lock_guard<std::mutex> lock(g_default_mu);
    g_default_width = std::min(num_threads, kMaxPoolThreads);
}

int
intraOpThreads()
{
    if (tls_intra_op_width > 0) {
        return tls_intra_op_width;
    }
    return processDefaultThreads();
}

IntraOpScope::IntraOpScope(int num_threads) : prev_(tls_intra_op_width)
{
    RECSTACK_CHECK(num_threads >= 0,
                   "intra-op thread count must be >= 0, got "
                       << num_threads);
    if (num_threads > 0) {
        tls_intra_op_width = std::min(num_threads, kMaxPoolThreads);
    }
}

IntraOpScope::~IntraOpScope()
{
    tls_intra_op_width = prev_;
}

}  // namespace recstack
