/**
 * @file
 * Ablation: L3 inclusion policy. Table II's Broadwell/Cascade Lake
 * differ in inclusive vs exclusive L3; this isolates the policy on an
 * otherwise-identical core for the embedding models, whose zipf-hot
 * rows live or die by effective cache capacity.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Ablation", "L3 inclusion policy (identical core otherwise)");

    CpuConfig incl = broadwellConfig();
    CpuConfig excl = broadwellConfig();
    excl.l3Policy = InclusionPolicy::kExclusive;
    SweepCache sweep({makeCpuPlatform(incl), makeCpuPlatform(excl)});

    TextTable table({"model", "batch", "inclusive L3 latency",
                     "exclusive L3 latency", "exclusive speedup"});
    double rm2_gain = 0.0;
    for (ModelId id : {ModelId::kNCF, ModelId::kRM1, ModelId::kRM2}) {
        for (int64_t batch : {16LL, 256LL}) {
            const double a = sweep.get(id, 0, batch).seconds;
            const double b = sweep.get(id, 1, batch).seconds;
            if (id == ModelId::kRM2 && batch == 256) {
                rm2_gain = a / b;
            }
            table.addRow({modelName(id), std::to_string(batch),
                          TextTable::fmtSeconds(a),
                          TextTable::fmtSeconds(b),
                          TextTable::fmtSpeedup(a / b)});
        }
    }
    std::printf("%s", table.render().c_str());

    checkHeader();
    check(rm2_gain > 0.95 && rm2_gain < 1.3,
          "on a 40 MB L3 the policy is a second-order effect "
          "(exclusive adds ~L2 worth of capacity)");
    check(sweep.get(ModelId::kRM2, 1, 256).seconds <
              sweep.get(ModelId::kRM2, 0, 256).seconds * 1.02,
          "exclusive L3 never hurts the gather-heavy models "
          "meaningfully (victim capacity helps the zipf head)");
    return recstack::bench::exitStatus();
}
