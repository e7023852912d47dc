#!/usr/bin/env bash
# Sanitizer passes over the suites that can hide memory/concurrency
# bugs from the default build:
#
#   tsan  — RECSTACK_SANITIZE=thread build, `ctest -L 'sanitize|store|disk|serving|obs|sched|simd|fleet|pim'`:
#           the concurrency suites (thread pool, serving engine,
#           parallel kernels, plan-vs-interpreted equivalence, the
#           sharded embedding store's lock/prefetch machinery).
#   asan  — RECSTACK_SANITIZE=address build, `ctest -L 'plan|store|disk|serving|obs|sched|simd|fleet|pim|uarch|synth'`:
#           the compiled-net planner/arena suites plus the embedding
#           store. Arena aliasing assigns overlapping
#           [offset, offset+bytes) ranges to blobs with disjoint
#           lifetimes, and the store hands out cache-payload pointers
#           under shard locks; an off-by-one in liveness, first-fit
#           placement, or row-payload sizing is exactly the kind of
#           bug that stays numerically silent until the sanitizer
#           sees the bad access.
#
# Both passes include the `obs` label: the metrics registry and span
# trace buffer are written from every worker thread on lock-free
# paths, so the observability layer must stay clean under TSan (the
# striped counters, the per-slot ready flags) and ASan (fixed-size
# record copies).
#
# The `simd` label covers the kernel-tier suites (ISA dispatch, the
# vector-vs-scalar differential harness, the numeric op suites
# whose SparseLengths pooling loops run the row kernels on the pool,
# and test_property: its ParallelOpDifferential cases run every op on
# the pool against width 1, and GruEquivalence runs the GRU layer and
# its unrolled graph on each tier):
# the AVX2 kernels read 32-byte lanes up to the last full block and
# must never touch bytes past a tensor's tail (ASan), and a kernel
# tier is resolved once per op and captured into pool-worker lambdas,
# which TSan verifies races neither with IsaScope nesting nor with the
# env-cache atomics.
#
# The `sched` label covers the heterogeneous scheduling suites
# (threshold router, accelerator lanes, hill-climb tuner): a lane is driven
# from every worker thread under the batch-queue lock and the tuner
# reads the shared metrics registry, so those paths run under both
# sanitizers too.
#
# The `fleet` label covers the cluster simulator suites: the
# differential replay drives the real multi-threaded ServingNode on
# captured traces (worker pool + batch queue under load), and the
# per-node histogram merge folds atomics written by those workers, so
# both sanitizers rerun them.
#
# The `pim` label covers the near-memory offload suites: the
# analytical-model invariants and the threshold's argument check. The PIM
# serving lane is the same AccelLane as the GPU one, so its routing
# and conservation tests run with the GPU lane's under `serving`.
#
# The `disk` label covers the persistent far-tier suites: DiskTier
# copies rows straight out of one shared mapping of the page file that
# write-through updates write into. Demand reads, prefetch warming and
# updates of a row all hold its shard lock and then the tier mutex
# (TSan: shard lock -> tier lock ordering, and the torn-row test that
# rewrites one disk row while another thread reads it). The mapping
# and per-shard scratch rows are fixed-size regions an off-by-one
# row/page computation would overrun (ASan).
#
# The `uarch` label (ASan pass only) covers the microarchitecture
# simulator's cache, cache-hierarchy and CPU-model suites. Each cache
# set is a slice of one flat key array that hits, fills and
# invalidations shift in place through raw pointers, so a way count or
# set index off by one would silently read or write the neighbouring
# set.
#
# The `synth` label (ASan pass only) covers the input-synthesis suites
# (common: Rng and ZipfSampler; workload: BatchGenerator). Every Zipf
# draw indexes the sampler's 256-slot guide table and then steps
# through its bucket CDF, so a slot computed one past the table or a
# scan that runs off the CDF's end is an out-of-bounds read there.
#
# Usage: tools/run_sanitize_checks.sh [tsan|asan|all]   (default: all)
#
# Build trees land in build-tsan/ and build-asan/ next to build/ and
# are reused incrementally on later runs.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_pass() {
    local sanitizer="$1" tree="$2" label="$3"
    echo "== ${sanitizer} pass: build ${tree}, ctest -L ${label} =="
    cmake -B "${tree}" -S . -DRECSTACK_SANITIZE="${sanitizer}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "${tree}" -j "${jobs}"
    ctest --test-dir "${tree}" -L "${label}" -j "${jobs}" --output-on-failure
}

case "${mode}" in
    tsan) run_pass thread build-tsan 'sanitize|store|disk|serving|obs|sched|simd|fleet|pim' ;;
    asan) run_pass address build-asan 'plan|store|disk|serving|obs|sched|simd|fleet|pim|uarch|synth' ;;
    all)
        run_pass address build-asan 'plan|store|disk|serving|obs|sched|simd|fleet|pim|uarch|synth'
        run_pass thread build-tsan 'sanitize|store|disk|serving|obs|sched|simd|fleet|pim'
        ;;
    *)
        echo "usage: $0 [tsan|asan|all]" >&2
        exit 2
        ;;
esac

echo "== sanitize checks passed (${mode}) =="
