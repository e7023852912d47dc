/**
 * @file
 * Fig. 8: TopDown pipeline-slot breakdowns of the eight models at
 * batch 16 on Broadwell (top) and Cascade Lake (bottom).
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 8", "TopDown pipeline slots, batch 16, BDW vs CLX");

    SweepCache sweep(allPlatforms());
    const int64_t batch = 16;

    auto dump = [&](size_t platform) {
        std::printf("\n--- %s ---\n", shortPlatformName(platform));
        for (ModelId id : allModels()) {
            const TopDownL1& l1 =
                sweep.get(id, platform, batch).topdown.l1;
            char label[16];
            std::snprintf(label, sizeof(label), "%-6s", modelName(id));
            std::printf("%s", stackedBar(label,
                                         {{"retire", l1.retiring},
                                          {"badspec", l1.badSpeculation},
                                          {"frontend", l1.frontendBound},
                                          {"backend", l1.backendBound}},
                                         44)
                                  .c_str());
        }
    };
    dump(kBdw);
    dump(kClx);

    checkHeader();
    auto td = [&](ModelId id, size_t p) {
        return sweep.get(id, p, batch).topdown;
    };

    // FC-heavy models retire most slots on Broadwell.
    bool fc_retire = true;
    for (ModelId id : {ModelId::kRM3, ModelId::kWnD, ModelId::kMTWnD}) {
        const TopDownL1& l1 = td(id, kBdw).l1;
        fc_retire &= l1.retiring >
                     std::max({l1.badSpeculation, l1.frontendBound});
    }
    check(fc_retire, "RM3/WnD/MT-WnD on BDW: retiring dominates "
                     "non-backend slots (matrix math retires well)");

    // Embedding models show meaningful bad speculation + frontend.
    bool emb_stalls = true;
    for (ModelId id : {ModelId::kRM1, ModelId::kRM2}) {
        const TopDownL1& l1 = td(id, kBdw).l1;
        emb_stalls &= (l1.badSpeculation + l1.frontendBound) > 0.08;
    }
    check(emb_stalls, "RM1/RM2 on BDW: visible bad-speculation + "
                      "frontend losses (irregular segment loops)");

    // Cascade Lake cuts bad speculation across the suite.
    bool clx_bs = true;
    for (ModelId id : allModels()) {
        clx_bs &= td(id, kClx).l1.badSpeculation <=
                  td(id, kBdw).l1.badSpeculation + 1e-9;
    }
    check(clx_bs, "Cascade Lake reduces bad-speculation slots for "
                  "every model");

    // Most models gain retiring share on CLX; the big-FC models do
    // not (fewer total instructions with AVX-512).
    int gained = 0;
    for (ModelId id : {ModelId::kNCF, ModelId::kRM1, ModelId::kRM2,
                       ModelId::kDIN, ModelId::kDIEN}) {
        gained += td(id, kClx).l1.retiring > td(id, kBdw).l1.retiring;
    }
    check(gained >= 3, "most non-FC models increase retiring share on "
                       "Cascade Lake");

    // Conservation: the four slices account for all slots.
    bool conserve = true;
    for (ModelId id : allModels()) {
        for (size_t p : {kBdw, kClx}) {
            conserve &= std::abs(td(id, p).l1Sum() - 1.0) < 1e-6;
        }
    }
    check(conserve, "TopDown level-1 slices sum to 100% of slots");
    return recstack::bench::exitStatus();
}
