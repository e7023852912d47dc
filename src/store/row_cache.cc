#include "store/row_cache.h"

#include <bit>
#include <cstring>

namespace recstack {
namespace {

constexpr size_t kMinBuckets = 16;

/** Fibonacci hash of a key; the top bits are the best mixed. */
uint32_t
tagOf(uint64_t key)
{
    return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ull) >> 32);
}

}  // namespace

const char*
cachePolicyName(CachePolicy policy)
{
    return policy == CachePolicy::kLRU ? "lru" : "clock";
}

RowCache::RowCache(CachePolicy policy, size_t capacity_bytes)
    : policy_(policy), capacity_(capacity_bytes), index_(kMinBuckets),
      shift_(32 - std::countr_zero(kMinBuckets))
{
}

size_t
RowCache::probe(uint64_t key, uint32_t tag)
{
    const size_t mask = index_.size() - 1;
    for (size_t pos = home(tag);; pos = (pos + 1) & mask) {
        const Bucket& b = index_[pos];
        if (b.slot == kNil ||
            (b.tag == tag && slotAt(b.slot).key == key)) {
            return pos;
        }
    }
}

void
RowCache::unlink(int32_t s)
{
    Slot& e = slotAt(s);
    if (e.prev != kNil) {
        slotAt(e.prev).next = e.next;
    } else {
        head_ = e.next;
    }
    if (e.next != kNil) {
        slotAt(e.next).prev = e.prev;
    } else {
        tail_ = e.prev;
    }
}

void
RowCache::pushFront(int32_t s)
{
    Slot& e = slotAt(s);
    e.prev = kNil;
    e.next = head_;
    if (head_ != kNil) {
        slotAt(head_).prev = s;
    } else {
        tail_ = s;
    }
    head_ = s;
}

int32_t
RowCache::allocSlot()
{
    if (free_ != kNil) {
        const int32_t s = free_;
        free_ = slotAt(s).next;
        return s;
    }
    const size_t chunk = static_cast<size_t>(slotsMade_) >> kChunkBits;
    if (chunk == chunks_.size()) {
        chunks_.emplace_back().reserve(size_t{1} << kChunkBits);
    }
    chunks_[chunk].emplace_back();
    return slotsMade_++;
}

const float*
RowCache::find(uint64_t key)
{
    const Bucket& b = index_[probe(key, tagOf(key))];
    if (b.slot == kNil) {
        return nullptr;
    }
    Slot& e = slotAt(b.slot);
    if (policy_ == CachePolicy::kLRU) {
        if (b.slot != head_) {
            unlink(b.slot);
            pushFront(b.slot);
        }
    } else {
        e.referenced = true;
    }
    return e.values.data();
}

void
RowCache::removeAt(size_t pos)
{
    const int32_t s = index_[pos].slot;
    Slot& e = slotAt(s);
    used_ -= e.values.size() * sizeof(float);
    if (hand_ == s) {
        hand_ = e.next;
    }
    unlink(s);
    e.next = free_;
    free_ = s;
    --live_;
    // Backward-shift deletion: pull each later entry of the run into
    // the hole when the hole lies between its home and its bucket.
    const size_t mask = index_.size() - 1;
    size_t hole = pos;
    for (size_t j = (pos + 1) & mask; index_[j].slot != kNil;
         j = (j + 1) & mask) {
        if (((j - home(index_[j].tag)) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole].slot = kNil;
}

void
RowCache::growIndex()
{
    std::vector<Bucket> old(index_.size() * 2);
    old.swap(index_);
    --shift_;
    const size_t mask = index_.size() - 1;
    for (const Bucket& b : old) {
        if (b.slot == kNil) {
            continue;
        }
        size_t pos = home(b.tag);
        while (index_[pos].slot != kNil) {
            pos = (pos + 1) & mask;
        }
        index_[pos] = b;
    }
}

void
RowCache::evictOne(uint64_t* evictions)
{
    if (live_ == 0) {
        return;
    }
    int32_t victim = tail_;
    if (policy_ == CachePolicy::kClock) {
        // Sweep the hand, granting one second chance per referenced
        // entry; terminates because each pass clears a bit.
        for (;;) {
            if (hand_ == kNil) {
                hand_ = head_;
            }
            Slot& e = slotAt(hand_);
            if (!e.referenced) {
                victim = hand_;
                hand_ = e.next;
                break;
            }
            e.referenced = false;
            hand_ = e.next;
        }
    }
    const uint64_t key = slotAt(victim).key;
    removeAt(probe(key, tagOf(key)));
    if (evictions != nullptr) {
        ++*evictions;
    }
}

void
RowCache::insert(uint64_t key, const float* row, size_t row_bytes,
                 uint64_t* evictions)
{
    if (row_bytes > capacity_ || capacity_ == 0) {
        return;  // bypass: a row the cache can never hold
    }
    const uint32_t tag = tagOf(key);
    size_t pos = probe(key, tag);
    if (index_[pos].slot != kNil) {
        return;
    }
    // An eviction can open an earlier hole in this key's run and a
    // resize moves every bucket; either way, probe again.
    bool moved = false;
    while (used_ + row_bytes > capacity_) {
        evictOne(evictions);
        moved = true;
    }
    if ((live_ + 1) * 2 > index_.size()) {
        growIndex();
        moved = true;
    }
    if (moved) {
        pos = probe(key, tag);
    }
    const int32_t s = allocSlot();
    Slot& e = slotAt(s);
    e.key = key;
    e.values.assign(row, row + row_bytes / sizeof(float));
    e.referenced = policy_ == CachePolicy::kClock;
    pushFront(s);
    index_[pos] = Bucket{s, tag};
    used_ += row_bytes;
    ++live_;
    if (policy_ == CachePolicy::kClock && hand_ == kNil) {
        hand_ = head_;
    }
}

bool
RowCache::refresh(uint64_t key, const float* row, size_t row_bytes)
{
    const size_t pos = probe(key, tagOf(key));
    if (index_[pos].slot == kNil) {
        return false;
    }
    Slot& e = slotAt(index_[pos].slot);
    if (e.values.size() * sizeof(float) != row_bytes) {
        removeAt(pos);
        return false;
    }
    std::memcpy(e.values.data(), row, row_bytes);
    return true;
}

void
RowCache::erase(uint64_t key)
{
    const size_t pos = probe(key, tagOf(key));
    if (index_[pos].slot != kNil) {
        removeAt(pos);
    }
}

}  // namespace recstack
