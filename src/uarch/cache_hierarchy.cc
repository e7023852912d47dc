#include "uarch/cache_hierarchy.h"

namespace recstack {

CacheHierarchy::CacheHierarchy(const CpuConfig& cfg)
    : l1_(cfg.l1d.sizeBytes, cfg.l1d.ways),
      l2_(cfg.l2.sizeBytes, cfg.l2.ways),
      l3_(cfg.l3.sizeBytes, cfg.l3.ways),
      policy_(cfg.l3Policy)
{
}

HitLevel
CacheHierarchy::access(uint64_t addr, bool is_write)
{
    // Write-allocate, writeback: writes behave like reads for tag
    // movement purposes.
    (void)is_write;

    if (l1_.access(addr)) {
        return HitLevel::kL1;
    }
    uint64_t l2_victim = UINT64_MAX;
    if (l2_.access(addr, &l2_victim)) {
        return HitLevel::kL2;
    }

    if (policy_ == InclusionPolicy::kInclusive) {
        uint64_t l3_victim = UINT64_MAX;
        const bool l3_hit = l3_.access(addr, &l3_victim);
        if (!l3_hit && l3_victim != UINT64_MAX) {
            // Inclusive: an L3 eviction invalidates inner copies.
            l1_.invalidate(l3_victim);
            l2_.invalidate(l3_victim);
        }
        return l3_hit ? HitLevel::kL3 : HitLevel::kDram;
    }

    // Exclusive: L3 holds only L2 victims. The L2 allocate above
    // displaced l2_victim, which now moves into L3. On L3 hit the
    // line moves up to L2 and leaves L3.
    if (l2_victim != UINT64_MAX) {
        l3_.insert(l2_victim);
    }
    return l3_.invalidate(addr) ? HitLevel::kL3 : HitLevel::kDram;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    l3_.reset();
}

}  // namespace recstack
