#ifndef RECSTACK_COMMON_THREAD_POOL_H_
#define RECSTACK_COMMON_THREAD_POOL_H_

/**
 * @file
 * Chunked-range thread pool for intra-operator parallelism.
 *
 * Every numeric kernel in src/ops/ parallelizes through the free
 * function parallelFor(begin, end, grain, fn): the range is split
 * statically into at most `width` near-equal contiguous chunks (each
 * at least `grain` elements) and the chunks run on a process-wide
 * pool of reused worker threads, the calling thread executing the
 * last chunk itself. Kernels partition *output* elements, so chunks
 * never share a destination and no reduction crosses a chunk
 * boundary — parallel execution is bit-identical to serial for any
 * thread count (tests/test_parallel_equivalence.cc locks this down).
 *
 * The effective width is resolved per calling thread:
 *
 *   1. an active IntraOpScope on this thread (Executor::run installs
 *      one from ExecOptions::numThreads),
 *   2. else the programmatic default set by setIntraOpThreads(),
 *   3. else the RECSTACK_NUM_THREADS environment variable,
 *   4. else std::thread::hardware_concurrency().
 *
 * parallelFor calls from inside a pool worker (nested parallelism)
 * degrade to serial inline execution — the pool never deadlocks on
 * its own workers. Concurrent parallelFor calls from independent
 * threads (e.g. ServingNode workers) share the same pool; their
 * chunk tasks interleave in the submission queue.
 */

#include <cstdint>
#include <functional>

namespace recstack {

/** Chunk body: processes the half-open element range [lo, hi). */
using RangeFn = std::function<void(int64_t lo, int64_t hi)>;

/**
 * Run fn over disjoint contiguous chunks covering [begin, end).
 *
 * Chunks are at least max(grain, 1) elements (except possibly when
 * the range itself is smaller) and are assigned statically: the
 * partition depends only on (begin, end, grain, width), never on
 * scheduling. Empty ranges return without invoking fn. With an
 * effective width of 1 — or when the range yields a single chunk —
 * fn(begin, end) runs inline on the caller, byte-for-byte the serial
 * path.
 */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn& fn);

/**
 * Grain (elements per chunk) so each chunk carries at least
 * `min_cost` units of work when one element costs `cost_per_item`.
 * Keeps tiny kernels serial instead of paying dispatch latency.
 */
int64_t grainForCost(uint64_t cost_per_item, uint64_t min_cost = 16384);

/**
 * Set the process-wide default intra-op width. 0 restores the
 * environment default (RECSTACK_NUM_THREADS, else hardware
 * concurrency). Thread-safe.
 */
void setIntraOpThreads(int num_threads);

/** The width parallelFor would use on this thread right now. */
int intraOpThreads();

/**
 * RAII override of the calling thread's intra-op width; this is how
 * ExecOptions::numThreads reaches the kernels without threading an
 * argument through every Operator::run signature. 0 = inherit the
 * process default (no-op scope).
 */
class IntraOpScope
{
  public:
    explicit IntraOpScope(int num_threads);
    ~IntraOpScope();

    IntraOpScope(const IntraOpScope&) = delete;
    IntraOpScope& operator=(const IntraOpScope&) = delete;

  private:
    int prev_;
};

}  // namespace recstack

#endif  // RECSTACK_COMMON_THREAD_POOL_H_
