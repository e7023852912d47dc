#include "core/regression_study.h"

#include <cmath>

namespace recstack {

std::vector<std::string>
regressionFeatureNames()
{
    return {"NumTables",       "LookupsPerTable", "LatentDim",
            "FCtoEmbRatio",    "FCTopHeaviness",  "Attention",
            "GRU",             "Log2Batch"};
}

std::vector<double>
regressionFeatures(const ModelFeatures& f, int64_t batch)
{
    return {static_cast<double>(f.numTables),
            f.lookupsPerTable,
            static_cast<double>(f.latentDim),
            std::log1p(f.fcToEmbRatio()),
            f.fcTopHeaviness(),
            f.attention ? 1.0 : 0.0,
            f.gru ? 1.0 : 0.0,
            std::log2(static_cast<double>(batch))};
}

RegressionStudy
runRegressionStudy(SweepCache& sweep, size_t platform_idx,
                   const std::vector<int64_t>& batches)
{
    RECSTACK_CHECK(platform_idx < sweep.platforms().size(),
                   "platform index out of range");
    RECSTACK_CHECK(sweep.platforms()[platform_idx].kind ==
                       PlatformKind::kCpu,
                   "regression study needs a CPU platform");

    RegressionStudy study;
    study.featureNames = regressionFeatureNames();
    study.targetNames = {"Retiring", "BadSpeculation", "FrontendBound",
                         "BackendCore", "BackendMemory"};

    std::vector<std::vector<double>> x;
    std::vector<std::vector<double>> ys(study.targetNames.size());

    for (ModelId id : allModels()) {
        const ModelFeatures& feats =
            sweep.characterizer().model(id).features;
        for (int64_t batch : batches) {
            const RunResult& r = sweep.get(id, platform_idx, batch);
            x.push_back(regressionFeatures(feats, batch));
            ys[0].push_back(r.topdown.l1.retiring);
            ys[1].push_back(r.topdown.l1.badSpeculation);
            ys[2].push_back(r.topdown.l1.frontendBound);
            ys[3].push_back(r.topdown.l2.beCore);
            ys[4].push_back(r.topdown.l2.beMemory);
        }
    }

    study.observations = x.size();
    study.fits.reserve(ys.size());
    for (const auto& y : ys) {
        study.fits.push_back(fitLinear(x, y));
    }
    return study;
}

}  // namespace recstack
