#include "uarch/cache.h"

#include <algorithm>

#include "common/logging.h"

namespace recstack {
namespace {

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
    lineShift_ = log2exact(static_cast<uint64_t>(lineBytes_));
    sets_ = sizeBytes_ /
            (static_cast<uint64_t>(ways_) *
             static_cast<uint64_t>(lineBytes_));
    RECSTACK_CHECK(sets_ > 0, "cache smaller than one set");
    // Non-power-of-two set counts are allowed (22 MB L3s exist); the
    // index is then taken modulo sets_.
    setMask_ = sets_ - 1;
    maskSets_ = (sets_ & setMask_) == 0;
    keys_.assign(sets_ * static_cast<uint64_t>(ways_), 0);
}

uint64_t
Cache::setBase(uint64_t line) const
{
    const uint64_t set = maskSets_ ? line & setMask_ : line % sets_;
    return set * static_cast<uint64_t>(ways_);
}

bool
Cache::moveToFront(uint64_t addr, uint64_t* evicted)
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t key = line + 1;
    uint64_t* set = keys_.data() + setBase(line);

    // Stop at the hit, the first empty way, or the last (LRU) way.
    int w = 0;
    while (w < ways_ - 1 && set[w] != key && set[w] != 0) {
        ++w;
    }
    const uint64_t old = set[w];
    const bool hit = old == key;
    if (!hit && evicted != nullptr) {
        *evicted = old == 0 ? UINT64_MAX : (old - 1) << lineShift_;
    }
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = key;
    return hit;
}

bool
Cache::access(uint64_t addr, uint64_t* evicted)
{
    const bool hit = moveToFront(addr, evicted);
    ++(hit ? hits_ : misses_);
    return hit;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = addr >> lineShift_;
    // Empty ways hold 0, which no key equals.
    const uint64_t* set = keys_.data() + setBase(line);
    return std::find(set, set + ways_, line + 1) != set + ways_;
}

void
Cache::insert(uint64_t addr, uint64_t* evicted)
{
    moveToFront(addr, evicted);
}

void
Cache::invalidate(uint64_t addr)
{
    const uint64_t line = addr >> lineShift_;
    uint64_t* set = keys_.data() + setBase(line);
    uint64_t* end = set + ways_;
    uint64_t* it = std::find(set, end, line + 1);
    if (it != end) {
        std::copy(it + 1, end, it);
        end[-1] = 0;
    }
}

void
Cache::reset()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    hits_ = misses_ = 0;
}

}  // namespace recstack
