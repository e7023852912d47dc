#ifndef RECSTACK_UARCH_CACHE_H_
#define RECSTACK_UARCH_CACHE_H_

/**
 * @file
 * Set-associative cache with true-LRU replacement. Used for L1D, L2,
 * L3 and L1I in the microarchitecture simulator. Tag-only (no data):
 * the simulator cares about hit/miss behaviour, not contents.
 *
 * Each set is one array of `ways` 8-byte keys kept in recency order,
 * most recently used first. A key is the line number plus one, so 0
 * marks an empty way, and the valid keys always form a prefix of the
 * set. A hit moves its key to way 0; a miss fills way 0 and evicts
 * the last way when the set is full. There are no timestamps and no
 * victim scan, and the eviction order is the same as true LRU.
 */

#include <cstdint>
#include <vector>

namespace recstack {

/** Tag-only set-associative LRU cache. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways       associativity
     * @param line_bytes line size (64 everywhere in this project)
     */
    Cache(uint64_t size_bytes, int ways, int line_bytes = 64);

    /**
     * Access the line containing @c addr.
     * @return true on hit. On miss the line is filled (allocate), and
     *         if a victim was evicted its address is stored in
     *         @c evicted (used for inclusive back-invalidation).
     */
    bool access(uint64_t addr, uint64_t* evicted = nullptr);

    /** True if the line is present (no LRU update, no fill). */
    bool probe(uint64_t addr) const;

    /** Insert without lookup (exclusive-hierarchy victim fill). */
    void insert(uint64_t addr, uint64_t* evicted = nullptr);

    /** Remove the line if present (back-invalidation). */
    void invalidate(uint64_t addr);

    /** Drop all contents. */
    void reset();

    uint64_t sizeBytes() const { return sizeBytes_; }
    int ways() const { return ways_; }
    int lineBytes() const { return lineBytes_; }
    uint64_t sets() const { return sets_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** Index in keys_ of the first way of @c line's set. */
    uint64_t setBase(uint64_t line) const;

    /** Shared by access() and insert(); returns true on hit. */
    bool moveToFront(uint64_t addr, uint64_t* evicted);

    uint64_t sizeBytes_;
    int ways_;
    int lineBytes_;
    int lineShift_;
    uint64_t sets_;
    uint64_t setMask_;   // sets_ - 1
    bool maskSets_;      // sets_ is a power of two: set = line & setMask_
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    std::vector<uint64_t> keys_;   // sets_ * ways_, set-major, MRU first
};

}  // namespace recstack

#endif  // RECSTACK_UARCH_CACHE_H_
