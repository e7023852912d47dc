#ifndef RECSTACK_TESTS_GRID_DIGEST_H_
#define RECSTACK_TESTS_GRID_DIGEST_H_

/**
 * @file
 * A pinned digest of one small characterization grid, shared by the
 * SweepCache tests: every model x {1, 64, 1024} x allPlatformsWithPim()
 * under tiny model options. Whatever fills the grid must reproduce the
 * serial SweepCache::get results field for field.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace recstack {

/** Digest recorded from the serial SweepCache::get path. */
constexpr uint64_t kPinnedGridDigest = 0x51146804f602fd2eull;

inline ModelOptions
digestGridOptions()
{
    ModelOptions opts = tinyOptions();
    opts.tableScale = 0.01;
    return opts;
}

inline std::vector<int64_t>
digestGridBatches()
{
    return {1, 64, 1024};
}

struct GridFnv {
    uint64_t h = 1469598103934665603ull;
    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
        }
    }
    void mixDouble(double d) { mix(std::bit_cast<uint64_t>(d)); }
    void mixString(const std::string& s)
    {
        mix(s.size());
        for (char c : s) {
            mix(static_cast<unsigned char>(c));
        }
    }
};

/**
 * FNV-1a over each point's seconds, CPU counters, TopDown split and
 * operator breakdown, read through @c sweep.get in model, batch,
 * platform order.
 */
inline uint64_t
gridDigest(SweepCache& sweep)
{
    GridFnv f;
    for (ModelId id : allModels()) {
        for (int64_t batch : digestGridBatches()) {
            for (size_t p = 0; p < sweep.platforms().size(); ++p) {
                const RunResult& r = sweep.get(id, p, batch);
                f.mixDouble(r.seconds);

                const CpuCounters& c = r.counters;
                for (uint64_t v :
                     {c.uopsRetired, c.avxUopsRetired,
                      c.scalarUopsRetired, c.branches,
                      c.branchMispredicts, c.l1dAccesses, c.l1dHits,
                      c.l2Hits, c.l3Hits, c.dramAccesses, c.dramBytes,
                      c.icacheAccesses, c.icacheMisses, c.uopsFromDsb,
                      c.uopsFromMite, c.dsbSwitches}) {
                    f.mix(v);
                }
                for (double v :
                     {c.cycles, c.retireCycles, c.feLatencyCycles,
                      c.feBandwidthDsbCycles, c.feBandwidthMiteCycles,
                      c.badSpecCycles, c.beCoreCycles, c.beMemL2Cycles,
                      c.beMemL3Cycles, c.beMemDramLatCycles,
                      c.beMemDramBwCycles, c.dramCongestedCycles,
                      c.storeCycles}) {
                    f.mixDouble(v);
                }
                for (double v : c.portsBusyAtLeast) {
                    f.mixDouble(v);
                }

                const TopDownResult& t = r.topdown;
                for (double v :
                     {t.l1.retiring, t.l1.badSpeculation,
                      t.l1.frontendBound, t.l1.backendBound,
                      t.l2.feLatency, t.l2.feBandwidth,
                      t.l2.feBandwidthDsb, t.l2.feBandwidthMite,
                      t.l2.beCore, t.l2.beMemory, t.l2.memL2,
                      t.l2.memL3, t.l2.memDramLatency,
                      t.l2.memDramBandwidth, t.cycles, t.ipc,
                      t.avxFraction, t.imspki, t.mispredictsPerKuop,
                      t.dramCongestedFraction, t.fuUsage3Plus}) {
                    f.mixDouble(v);
                }

                for (const auto& [type, seconds] : r.breakdown.byType()) {
                    f.mixString(type);
                    f.mixDouble(seconds);
                }
            }
        }
    }
    return f.h;
}

}  // namespace recstack

#endif  // RECSTACK_TESTS_GRID_DIGEST_H_
