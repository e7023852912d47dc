/**
 * @file
 * Fig. 7: Caffe2 vs TensorFlow operator breakdowns for the
 * DLRM-based models (RM1/RM2/RM3). FC maps to FusedMatMul and
 * SparseLengthsSum to ResourceGather + Sum; the dominant bottleneck
 * is framework-independent.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

namespace {

double
embeddingShare(const OperatorBreakdown& b)
{
    return b.fraction("SparseLengthsSum") + b.fraction("ResourceGather") +
           b.fraction("Sum");
}

double
fcShare(const OperatorBreakdown& b)
{
    return b.fraction("FC") + b.fraction("FusedMatMul");
}

}  // namespace

int
main()
{
    banner("Fig. 7", "Caffe2 vs TensorFlow operator breakdowns (DLRM)");

    const Platform bdw = makeCpuPlatform(broadwellConfig());
    Characterizer caffe2({}, 42, FrameworkId::kCaffe2);
    Characterizer tensorflow({}, 42, FrameworkId::kTensorFlow);
    const int64_t batch = 64;

    bool same_bottleneck = true;
    double max_gap = 0.0;
    for (ModelId id :
         {ModelId::kRM1, ModelId::kRM2, ModelId::kRM3}) {
        const RunResult c2 = caffe2.run(id, bdw, batch);
        const RunResult tf = tensorflow.run(id, bdw, batch);
        std::printf("\n--- %s (batch %lld, Broadwell) ---\n",
                    modelName(id), static_cast<long long>(batch));
        for (const auto* r : {&c2, &tf}) {
            std::vector<ChartItem> segs;
            double other = 0.0;
            for (const auto& [type, frac] : r->breakdown.fractions()) {
                if (segs.size() < 5 && frac >= 0.03) {
                    segs.push_back({type, frac});
                } else {
                    other += frac;
                }
            }
            segs.push_back({"other", other});
            std::printf("%s",
                        stackedBar(r == &c2 ? "Caffe2    " : "TensorFlow",
                                   segs, 40)
                            .c_str());
        }
        const double emb_gap =
            std::abs(embeddingShare(c2.breakdown) -
                     embeddingShare(tf.breakdown));
        const double fc_gap =
            std::abs(fcShare(c2.breakdown) - fcShare(tf.breakdown));
        max_gap = std::max({max_gap, emb_gap, fc_gap});
        const bool emb_dom_c2 =
            embeddingShare(c2.breakdown) > fcShare(c2.breakdown);
        const bool emb_dom_tf =
            embeddingShare(tf.breakdown) > fcShare(tf.breakdown);
        same_bottleneck &= emb_dom_c2 == emb_dom_tf;
    }

    checkHeader();
    check(same_bottleneck,
          "the dominant operator class (embedding vs FC) is the same "
          "under Caffe2 and TensorFlow");
    check(max_gap < 0.25,
          "embedding/FC time shares are similar (first-order) across "
          "frameworks");
    return recstack::bench::exitStatus();
}
