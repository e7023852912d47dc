#ifndef RECSTACK_STORE_SPLINE_INDEX_H_
#define RECSTACK_STORE_SPLINE_INDEX_H_

/**
 * @file
 * Radix-spline learned index over a static sorted key set.
 *
 * The disk tier (store/disk_tier.h) holds only the cold tail of every
 * embedding table, keyed by the store's 64-bit (table, row) keys — a
 * sparse, non-contiguous set (tables sit 2^40 apart, and each table
 * contributes only its cold rows), so locating a row's slot needs an
 * index rather than arithmetic. Instead of a B-tree or a plain binary
 * search over the key array, SplineIndex learns the key → ordinal CDF
 * the RadixSpline way (Kipf et al.; the same design EmbedDB uses on
 * microcontrollers):
 *
 *  1. build: one greedy pass fits a piecewise-linear spline over the
 *     (key, ordinal) points such that interpolating inside any
 *     segment predicts the true ordinal within `maxError` slots;
 *  2. a radix table over the leading bits of (key - minKey) narrows
 *     the spline-segment search to a handful of knots;
 *  3. lookup: radix prefix → knot range → binary search for the
 *     segment → linear interpolation → bounded search of the key
 *     array in [predicted - maxError, predicted + maxError].
 *
 * So a lookup costs one radix probe plus two short, cache-friendly
 * searches, independent of the total key count — versus log2(n)
 * scattered probes for a plain binary search. The binary-search path
 * is kept as the always-available reference (`findBinarySearch`) and
 * every spline answer is verified against it by the property tests in
 * tests/test_store_disk.cc and the bench_ext_store PAPER-CHECK.
 *
 * The index is immutable after construction and all lookups are
 * const, so concurrent readers need no synchronization.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace recstack {

/** Build-time knobs of a SplineIndex. */
struct SplineIndexConfig {
    /// Corridor half-width of the greedy spline fit: interpolation
    /// inside a segment is wrong by at most this many slots, so the
    /// final search window is 2*maxError+1 keys.
    size_t maxError = 32;
};

/** Shape/size report of a built SplineIndex. */
struct SplineIndexStats {
    size_t numKeys = 0;
    size_t numSegments = 0;      ///< spline knots - 1
    size_t radixBits = 0;        ///< actual (possibly clamped) bits
    size_t maxErrorBound = 0;    ///< configured corridor half-width
    size_t maxErrorObserved = 0; ///< measured over every key at build
    size_t indexBytes = 0;       ///< knots + radix table footprint
};

/** Learned key → ordinal index; see file comment. */
class SplineIndex
{
  public:
    /// find() result for a key not in the set.
    static constexpr size_t kNotFound =
        std::numeric_limits<size_t>::max();

    /**
     * Build over strictly-increasing keys. The key array is moved in
     * and owned by the index (the bounded final search reads it);
     * keys() exposes it.
     */
    explicit SplineIndex(std::vector<uint64_t> sorted_keys,
                         SplineIndexConfig config = {});

    /** Ordinal of `key` in the key set, or kNotFound. */
    size_t find(uint64_t key) const;

    /**
     * Reference lookup: plain std::lower_bound over the whole key
     * array. Identical answers to find() for every possible key.
     */
    size_t findBinarySearch(uint64_t key) const;

    const std::vector<uint64_t>& keys() const { return keys_; }
    size_t size() const { return keys_.size(); }
    SplineIndexStats stats() const;

  private:
    /// One spline knot: interpolate ordinals between adjacent knots.
    struct Knot {
        uint64_t key = 0;
        size_t ordinal = 0;
    };

    void buildSpline();
    void buildRadixTable();
    /// Predicted ordinal of a key known to lie in [minKey, maxKey].
    size_t predict(uint64_t key) const;

    SplineIndexConfig config_;
    std::vector<uint64_t> keys_;
    std::vector<Knot> knots_;
    /// radix_[p] = first knot whose shifted key prefix is >= p; the
    /// segment containing a key lies in knots_[radix_[p] - 1 ..
    /// radix_[p + 1]].
    std::vector<uint32_t> radix_;
    int shiftBits_ = 0;
    int radixBits_ = 0;
    size_t maxErrorObserved_ = 0;
};

}  // namespace recstack

#endif  // RECSTACK_STORE_SPLINE_INDEX_H_
