#ifndef RECSTACK_UARCH_CACHE_H_
#define RECSTACK_UARCH_CACHE_H_

/**
 * @file
 * Set-associative cache with true-LRU replacement. Used for L1D, L2,
 * L3 and L1I in the microarchitecture simulator. Tag-only (no data):
 * the simulator cares about hit/miss behaviour, not contents.
 *
 * Each set is a ring of `ways` 8-byte keys with a one-byte head, the
 * physical way of the most recently used key; recency position j
 * lives at way (head + j) mod ways. A key is the line number plus
 * one, so 0 marks an empty way, and the valid keys always form a
 * prefix of the recency order. A miss steps the head back one way
 * and overwrites that slot, which holds the LRU key (the victim) or
 * an empty 0. A hit at recency position w shifts only the w keys
 * ahead of it, and an invalidation closes the gap behind the removed
 * key and empties the last position. The order is exactly true LRU.
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

    /**
     * Remove the line if present (back-invalidation, or an exclusive
     * L3 handing a hit up to L2). @return true if it was present.
     */
    bool invalidate(uint64_t addr);

    /** Drop all contents. */
    void reset();

    uint64_t sizeBytes() const { return sizeBytes_; }
    int ways() const { return ways_; }
    int lineBytes() const { return lineBytes_; }
    uint64_t sets() const { return sets_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** Set index of @c line. */
    uint64_t setOf(uint64_t line) const
    {
        return maskSets_ ? line & setMask_ : line % sets_;
    }

    /** Physical way of @c key in @c set, or -1 when absent. */
    int find(const uint64_t* set, uint64_t key) const;

    /** Shared by access() and insert(); returns true on hit. */
    bool touch(uint64_t addr, uint64_t* evicted);

    uint64_t sizeBytes_;
    int ways_;
    int lineBytes_;
    int lineShift_;
    uint64_t sets_;
    uint64_t setMask_;   // sets_ - 1
    bool maskSets_;      // sets_ is a power of two: set = line & setMask_
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    std::vector<uint64_t> keys_;   // sets_ * ways_, set-major rings
    std::vector<uint8_t> heads_;   // per set: physical way of the MRU key
};

// The per-access path is defined here so that CacheHierarchy::access
// and the CPU model's instruction-cache walk inline each lookup.

inline int
Cache::find(const uint64_t* set, uint64_t key) const
{
    // One compare per way, no early exit: empty ways hold 0, which no
    // key equals, and a key sits in at most one way.
    int way = -1;
    for (int w = 0; w < ways_; ++w) {
        way = set[w] == key ? w : way;
    }
    return way;
}

inline bool
Cache::touch(uint64_t addr, uint64_t* evicted)
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t key = line + 1;
    const uint64_t s = setOf(line);
    uint64_t* set = keys_.data() + s * static_cast<uint64_t>(ways_);
    int head = heads_[s];
    const int way = find(set, key);
    if (way < 0) {
        // The way behind the head holds the LRU key or an empty 0.
        head = head == 0 ? ways_ - 1 : head - 1;
        heads_[s] = static_cast<uint8_t>(head);
        if (evicted != nullptr) {
            const uint64_t old = set[head];
            *evicted = old == 0 ? UINT64_MAX : (old - 1) << lineShift_;
        }
        set[head] = key;
        return false;
    }
    // The keys ahead of the hit move back one position.
    for (int w = way; w != head;) {
        const int ahead = w == 0 ? ways_ - 1 : w - 1;
        set[w] = set[ahead];
        w = ahead;
    }
    set[head] = key;
    return true;
}

inline bool
Cache::access(uint64_t addr, uint64_t* evicted)
{
    const bool hit = touch(addr, evicted);
    ++(hit ? hits_ : misses_);
    return hit;
}

inline void
Cache::insert(uint64_t addr, uint64_t* evicted)
{
    touch(addr, evicted);
}

}  // namespace recstack

#endif  // RECSTACK_UARCH_CACHE_H_
