#ifndef RECSTACK_STORE_ROW_CACHE_H_
#define RECSTACK_STORE_ROW_CACHE_H_

/**
 * @file
 * Byte-capacity-bound hot-row cache used by one EmbeddingStore shard.
 *
 * Two replacement policies are supported:
 *
 *  - kLRU:   exact least-recently-used; every hit moves the entry to
 *            the front of the recency list, eviction takes the back.
 *  - kClock: second-chance approximation; hits only set a reference
 *            bit, the clock hand sweeps entries clearing bits and
 *            evicts the first unreferenced one. Cheaper per hit than
 *            LRU (no list surgery), which is why production caches
 *            (and the EmbedDB-style embedded stores) favor it.
 *
 * The cache stores row payload copies keyed by a 64-bit (table, row)
 * key in a flat layout with no per-entry heap node:
 *
 *  - a slot pool, grown in fixed-size chunks, holds each entry's key,
 *    its int32 prev/next links and its reference bit; the recency
 *    list (LRU order, CLOCK sweep order) is linked through those
 *    indices and freed slots go on a free list;
 *  - an open-addressed, power-of-two index maps key -> slot with
 *    linear probing and backward-shift deletion (no tombstones); a
 *    bucket is the int32 slot plus a 32-bit hash tag that also gives
 *    the bucket's home, so probing and shifting never touch a slot
 *    whose tag differs. The index doubles at half load;
 *  - each slot keeps its payload buffer when freed, so an insert that
 *    reuses the slot just evicted allocates nothing.
 *
 * The replacement order is exactly that of LRU / CLOCK over one
 * recency list; RowCache.ReplacementDigestsArePinned holds it there.
 *
 * The cache is not internally synchronized: the owning shard's mutex
 * guards every call. A payload pointer returned by find() stays valid
 * until the next insert(), refresh() or erase() on the same cache
 * (further find() calls keep it valid), and only while that lock is
 * held; a later insert may hand the freed slot's buffer to another
 * row.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace recstack {

/** Replacement policy of a shard's hot-row cache. */
enum class CachePolicy { kLRU, kClock };

/** Printable policy name ("lru" / "clock"). */
const char* cachePolicyName(CachePolicy policy);

/** One shard's row cache; see file comment for locking rules. */
class RowCache
{
  public:
    RowCache(CachePolicy policy, size_t capacity_bytes);

    /**
     * Look up a cached row. Returns the cached payload (valid as the
     * file comment says) or nullptr on miss. A hit updates recency
     * state (LRU move to front / CLOCK reference bit).
     */
    const float* find(uint64_t key);

    /**
     * Insert a row payload copy, evicting per policy until it fits.
     * Rows larger than the whole capacity bypass the cache. Bumps
     * *evictions once per victim. No-op if the key is already cached.
     */
    void insert(uint64_t key, const float* row, size_t row_bytes,
                uint64_t* evictions);

    /**
     * Overwrite the cached payload for a key if (and only if) it is
     * resident, keeping cached data coherent with a backing-store
     * write. Returns true when a cached copy was refreshed; a resident
     * row of a different size is erased instead.
     */
    bool refresh(uint64_t key, const float* row, size_t row_bytes);

    /** Drop a key if cached. */
    void erase(uint64_t key);

    size_t bytesUsed() const { return used_; }
    size_t capacityBytes() const { return capacity_; }
    size_t entries() const { return live_; }
    CachePolicy policy() const { return policy_; }

  private:
    static constexpr int32_t kNil = -1;
    static constexpr int kChunkBits = 8;  // 256 slots per pool chunk

    struct Slot {
        uint64_t key = 0;
        int32_t prev = kNil;  // toward the front (most recent)
        int32_t next = kNil;  // toward the back; free-list link when free
        bool referenced = false;  // CLOCK second-chance bit
        std::vector<float> values;  // payload; kept when the slot is freed
    };
    struct Bucket {
        int32_t slot = kNil;  // kNil: empty
        uint32_t tag = 0;     // key hash; its top bits are the home
    };

    Slot& slotAt(int32_t s)
    {
        return chunks_[static_cast<size_t>(s) >> kChunkBits]
                      [static_cast<size_t>(s) & ((1u << kChunkBits) - 1)];
    }
    size_t home(uint32_t tag) const { return tag >> shift_; }
    /** Bucket holding key, or the empty bucket that ends its run. */
    size_t probe(uint64_t key, uint32_t tag);
    void unlink(int32_t s);
    void pushFront(int32_t s);
    int32_t allocSlot();
    /** Remove the entry in bucket pos: list, free list, index. */
    void removeAt(size_t pos);
    void growIndex();
    void evictOne(uint64_t* evictions);

    CachePolicy policy_;
    size_t capacity_;
    size_t used_ = 0;
    size_t live_ = 0;
    std::vector<std::vector<Slot>> chunks_;  // slot s: chunk s >> kChunkBits
    int32_t slotsMade_ = 0;
    int32_t free_ = kNil;
    int32_t head_ = kNil;  // most recent / CLOCK sweep start
    int32_t tail_ = kNil;  // LRU victim
    int32_t hand_ = kNil;  // CLOCK sweep position; kNil = past the tail
    std::vector<Bucket> index_;
    int shift_ = 0;  // 32 - log2(index_.size())
};

}  // namespace recstack

#endif  // RECSTACK_STORE_ROW_CACHE_H_
