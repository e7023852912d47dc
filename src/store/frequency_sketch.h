#ifndef RECSTACK_STORE_FREQUENCY_SKETCH_H_
#define RECSTACK_STORE_FREQUENCY_SKETCH_H_

/**
 * @file
 * Count-min frequency sketch over 64-bit row keys: the admission
 * filter of the disk tier's promoted slab (TinyLFU, Einziger et al.).
 *
 * kDepth rows of kWidth saturating 8-bit counters. A key bumps one
 * counter per row, picked by disjoint slices of one 64-bit mix of the
 * whole key, and its estimate is the minimum over the rows, so two
 * keys conflate only where every slice collides: rows r and r + 4096
 * of one table, or row r of two tables, are counted apart. After
 * kWindow increments every counter halves (TinyLFU's reset), so the
 * estimates follow the recent access stream, not the whole history.
 *
 * Not synchronized: the owning shard's mutex guards every call.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace recstack {

class FrequencySketch
{
  public:
    static constexpr size_t kDepth = 4;
    static constexpr int kWidthBits = 14;
    static constexpr size_t kWidth = size_t{1} << kWidthBits;
    /// Increments between two halvings of every counter.
    static constexpr uint32_t kWindow = 1u << 18;

    FrequencySketch() : counters_(kDepth * kWidth) {}

    /** Count one access of key; returns its new estimate. */
    uint32_t increment(uint64_t key)
    {
        const uint64_t h = mix(key);
        uint32_t est = UINT8_MAX;
        for (size_t d = 0; d < kDepth; ++d) {
            uint8_t& c = counters_[slot(h, d)];
            if (c < UINT8_MAX) {
                ++c;
            }
            est = std::min<uint32_t>(est, c);
        }
        if (++increments_ == kWindow) {
            for (uint8_t& c : counters_) {
                c >>= 1;
            }
            increments_ = 0;
        }
        return est;
    }

    /** Estimated accesses of key in the current window. */
    uint32_t estimate(uint64_t key) const
    {
        const uint64_t h = mix(key);
        uint32_t est = UINT8_MAX;
        for (size_t d = 0; d < kDepth; ++d) {
            est = std::min<uint32_t>(est, counters_[slot(h, d)]);
        }
        return est;
    }

  private:
    /** splitmix64's finalizer: every key bit reaches every slice. */
    static uint64_t mix(uint64_t z)
    {
        z += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    static size_t slot(uint64_t h, size_t d)
    {
        return d * kWidth +
               static_cast<size_t>((h >> (d * kWidthBits)) & (kWidth - 1));
    }

    std::vector<uint8_t> counters_;
    uint32_t increments_ = 0;
};

}  // namespace recstack

#endif  // RECSTACK_STORE_FREQUENCY_SKETCH_H_
