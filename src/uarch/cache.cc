#include "uarch/cache.h"

#include <algorithm>

#include "common/logging.h"

namespace recstack {
namespace {

/// Largest associativity the one-byte ring head can index.
constexpr int kMaxWays = 255;

int
log2exact(uint64_t v)
{
    int shift = 0;
    while ((1ull << shift) < v) {
        ++shift;
    }
    RECSTACK_CHECK((1ull << shift) == v, "value " << v
                   << " is not a power of two");
    return shift;
}

}  // namespace

Cache::Cache(uint64_t size_bytes, int ways, int line_bytes)
    : sizeBytes_(size_bytes), ways_(ways), lineBytes_(line_bytes)
{
    RECSTACK_CHECK(ways_ > 0 && lineBytes_ > 0, "bad cache geometry");
    RECSTACK_CHECK(ways_ <= kMaxWays, "cache of " << ways_
                   << " ways: the ring head indexes at most " << kMaxWays);
    lineShift_ = log2exact(static_cast<uint64_t>(lineBytes_));
    const uint64_t set_bytes = static_cast<uint64_t>(ways_) *
                               static_cast<uint64_t>(lineBytes_);
    sets_ = sizeBytes_ / set_bytes;
    RECSTACK_CHECK(sets_ > 0, "cache smaller than one set");
    RECSTACK_CHECK(sets_ * set_bytes == sizeBytes_, "cache size "
                   << sizeBytes_ << " B is not a whole number of "
                   << set_bytes << " B sets");
    // Non-power-of-two set counts are allowed (22 MB L3s exist); the
    // index is then taken modulo sets_.
    setMask_ = sets_ - 1;
    maskSets_ = (sets_ & setMask_) == 0;
    keys_.assign(sets_ * static_cast<uint64_t>(ways_), 0);
    heads_.assign(sets_, 0);
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t* set =
        keys_.data() + setOf(line) * static_cast<uint64_t>(ways_);
    return find(set, line + 1) >= 0;
}

bool
Cache::invalidate(uint64_t addr)
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t s = setOf(line);
    uint64_t* set = keys_.data() + s * static_cast<uint64_t>(ways_);
    const int way = find(set, line + 1);
    if (way < 0) {
        return false;
    }
    // The keys behind the removed one move up a position, and the
    // last (LRU) position empties.
    const int head = heads_[s];
    const int last = head == 0 ? ways_ - 1 : head - 1;
    for (int w = way; w != last;) {
        const int behind = w + 1 == ways_ ? 0 : w + 1;
        set[w] = set[behind];
        w = behind;
    }
    set[last] = 0;
    return true;
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(heads_.begin(), heads_.end(), 0);
    hits_ = misses_ = 0;
}

}  // namespace recstack
