/**
 * @file
 * Tests of the custom-model config parser and builder.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "core/characterizer.h"
#include "graph/executor.h"
#include "models/custom.h"

namespace recstack {
namespace {

constexpr const char* kGoodConfig = R"(
# a heterogeneous two-table ranker
name MyRanker
dense 13
bottom 64 32
table rows=1000 dim=16 lookups=8
table rows=500 dim=32 lookups=4 zipf=0.9 weighted
top 48 1
)";

CustomModelConfig
parse(const std::string& text)
{
    std::istringstream in(text);
    CustomModelConfig config;
    std::string error;
    EXPECT_TRUE(parseCustomModelConfig(in, &config, &error)) << error;
    return config;
}

TEST(CustomConfig, ParsesFullExample)
{
    const CustomModelConfig c = parse(kGoodConfig);
    EXPECT_EQ(c.name, "MyRanker");
    EXPECT_EQ(c.denseDim, 13);
    EXPECT_EQ(c.bottom, (std::vector<int64_t>{64, 32}));
    EXPECT_EQ(c.top, (std::vector<int64_t>{48, 1}));
    ASSERT_EQ(c.tables.size(), 2u);
    EXPECT_EQ(c.tables[0].rows, 1000);
    EXPECT_EQ(c.tables[0].dim, 16);
    EXPECT_EQ(c.tables[0].lookups, 8);
    EXPECT_FALSE(c.tables[0].weighted);
    EXPECT_DOUBLE_EQ(c.tables[1].zipf, 0.9);
    EXPECT_TRUE(c.tables[1].weighted);
}

TEST(CustomConfig, RejectsMissingSections)
{
    const char* broken[] = {
        "dense 13\nbottom 8\ntable rows=10 dim=4 lookups=1\n",  // no top
        "bottom 8\ntable rows=10 dim=4 lookups=1\ntop 1\n",     // no dense
        "dense 13\ntable rows=10 dim=4 lookups=1\ntop 1\n",     // no bottom
        "dense 13\nbottom 8\ntop 1\n",                          // no table
    };
    for (const char* text : broken) {
        std::istringstream in(text);
        CustomModelConfig config;
        std::string error;
        EXPECT_FALSE(parseCustomModelConfig(in, &config, &error))
            << text;
        EXPECT_FALSE(error.empty());
    }
}

TEST(CustomConfig, RejectsBadSyntax)
{
    for (const char* text :
         {"frobnicate 3\n", "dense -1\n", "bottom 0\n",
          "table rows=10 dim=4 lookups=1 sparkle=yes\n",
          "table rows=0 dim=4 lookups=1\n"}) {
        std::istringstream in(text);
        CustomModelConfig config;
        std::string error;
        EXPECT_FALSE(parseCustomModelConfig(in, &config, &error))
            << text;
        EXPECT_NE(error.find("line"), std::string::npos) << error;
    }
}

TEST(CustomConfig, RejectsTrailingJunk)
{
    const std::pair<const char*, const char*> cases[] = {
        {"table rows=12x dim=4 lookups=1",
         "table attribute 'rows' needs a whole number, got 'rows=12x'"},
        {"table rows=10 dim=4.5 lookups=1",
         "table attribute 'dim' needs a whole number, got 'dim=4.5'"},
        {"table rows=10 dim=4 lookups=",
         "table attribute 'lookups' needs a whole number, got 'lookups='"},
        {"table rows=10 dim=4 lookups=1 zipf=abc",
         "table attribute 'zipf' needs a finite number >= 0, got "
         "'zipf=abc'"},
        {"table rows=10 dim=4 lookups=1 zipf=0.9x",
         "table attribute 'zipf' needs a finite number >= 0, got "
         "'zipf=0.9x'"},
        {"table rows=10 dim=4 lookups=1 zipf=inf",
         "table attribute 'zipf' needs a finite number >= 0, got "
         "'zipf=inf'"},
        {"table rows=10 dim=4 lookups=1 zipf=-0.5",
         "table attribute 'zipf' needs a finite number >= 0, got "
         "'zipf=-0.5'"},
        {"table rows=10 dim=4 lookups=1 weighted=no",
         "table attribute 'weighted' takes no value, got 'weighted=no'"},
        {"dense 16 17", "unexpected '17' after the dense dimension"},
        {"dense 16x", "bad dense dimension '16x'"},
        {"name My Ranker", "unexpected 'Ranker' after the model name"},
        {"bottom 64 32x", "bad bottom widths"},
    };
    for (const auto& [line, message] : cases) {
        // The bad line is line 2, after a comment.
        std::istringstream in(std::string("# junk test\n") + line + "\n");
        CustomModelConfig config;
        std::string error;
        EXPECT_FALSE(parseCustomModelConfig(in, &config, &error)) << line;
        EXPECT_EQ(error, std::string(message) + " at line 2") << line;
    }
}

TEST(CustomConfig, RejectsRepeatedKeys)
{
    // Each config's bad line is line 3.
    const std::pair<const char*, const char*> cases[] = {
        {"# repeats\ntable rows=16 dim=4 lookups=1\n"
         "table rows=10 rows=20 dim=4 lookups=1\n",
         "table attribute 'rows' is repeated, got 'rows=20' at line 3"},
        {"# repeats\n\ntable rows=16 dim=4 dim=8 lookups=2\n",
         "table attribute 'dim' is repeated, got 'dim=8' at line 3"},
        {"# repeats\n\ntable rows=16 dim=4 lookups=2 lookups=2\n",
         "table attribute 'lookups' is repeated, got 'lookups=2' at line 3"},
        {"# repeats\n\ntable rows=16 dim=4 lookups=1 zipf=1 zipf=0.5\n",
         "table attribute 'zipf' is repeated, got 'zipf=0.5' at line 3"},
        {"# repeats\n\ntable rows=16 weighted dim=4 lookups=1 weighted\n",
         "table attribute 'weighted' is repeated, got 'weighted' at line 3"},
        {"# repeats\nname A\nname B\n",
         "repeated 'name' line (first at line 2) at line 3"},
        {"name A\ndense 4\ndense 4\n",
         "repeated 'dense' line (first at line 2) at line 3"},
        {"bottom 8\ndense 4\nbottom 8 4\n",
         "repeated 'bottom' line (first at line 1) at line 3"},
        {"# repeats\ntop 1\ntop 4 1\n",
         "repeated 'top' line (first at line 2) at line 3"},
    };
    for (const auto& [text, message] : cases) {
        std::istringstream in(text);
        CustomModelConfig config;
        std::string error;
        EXPECT_FALSE(parseCustomModelConfig(in, &config, &error)) << text;
        EXPECT_EQ(error, message) << text;
    }
    // Two table lines are two tables, not a repeat.
    const CustomModelConfig c = parse(
        "dense 4\nbottom 8\ntable rows=16 dim=4 lookups=2\n"
        "table rows=16 dim=4 lookups=2\ntop 1\n");
    EXPECT_EQ(c.tables.size(), 2u);
}

TEST(CustomConfig, CommentsAndBlankLinesIgnored)
{
    const CustomModelConfig c = parse(
        "\n# header\nname X # trailing\n  \ndense 4\nbottom 8\n"
        "table rows=16 dim=4 lookups=2\ntop 1\n");
    EXPECT_EQ(c.name, "X");
    EXPECT_EQ(c.denseDim, 4);
}

TEST(CustomModel, BuildsAndRunsNumerics)
{
    Model model = buildCustomModel(parse(kGoodConfig));
    EXPECT_EQ(model.id, ModelId::kCustom);
    EXPECT_EQ(model.name, "MyRanker");
    EXPECT_EQ(model.features.numTables, 2);

    Workspace ws;
    model.initParams(ws, 7);
    BatchGenerator gen(model.workload, 42);
    gen.materialize(ws, 4);
    Executor::run(model.net, ws, ExecMode::kFull);
    const Tensor& out = ws.get(model.outputBlob);
    EXPECT_EQ(out.dim(0), 4);
    for (int64_t i = 0; i < out.numel(); ++i) {
        const float v = out.data<float>()[i];
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GT(v, 0.0f);
        ASSERT_LT(v, 1.0f);
    }
}

TEST(CustomModel, HeterogeneousTablesRespected)
{
    Model model = buildCustomModel(parse(kGoodConfig));
    // One plain SLS + one weighted SLS.
    int sls = 0, slws = 0;
    for (const auto& op : model.net.ops()) {
        sls += op->type() == "SparseLengthsSum";
        slws += op->type() == "SparseLengthsWeightedSum";
    }
    EXPECT_EQ(sls, 1);
    EXPECT_EQ(slws, 1);
    // Interaction width: bottom 32 + 16 + 32 = 80 feeds the top FC.
    bool found_top_fc = false;
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    BatchGenerator gen(model.workload);
    gen.declare(ws, 2);
    Executor::run(model.net, ws, ExecMode::kProfileOnly);
    for (const auto& op : model.net.ops()) {
        if (op->type() == "FC" &&
            ws.get(op->inputs()[0]).dim(1) == 80) {
            found_top_fc = true;
        }
    }
    EXPECT_TRUE(found_top_fc);
}

TEST(CustomModel, CharacterizesLikeStockModels)
{
    Model model = buildCustomModel(parse(kGoodConfig));
    Workspace ws;
    ws.setShapeOnly(true);
    model.declareParams(ws);
    BatchGenerator gen(model.workload);
    gen.declare(ws, 32);
    const NetExecResult exec =
        Executor::run(model.net, ws, ExecMode::kProfileOnly);

    std::vector<KernelProfile> profiles;
    profiles.push_back(gen.dataLoadProfile(32));
    for (const auto& rec : exec.records) {
        profiles.push_back(rec.profile);
    }
    const RunResult r = simulateProfiles(
        profiles, makeCpuPlatform(broadwellConfig()), ModelId::kCustom,
        32, gen.inputBytes(32), 5);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_NEAR(r.topdown.l1Sum(), 1.0, 1e-9);
}

TEST(CustomModel, FileLoadErrors)
{
    CustomModelConfig config;
    std::string error;
    EXPECT_FALSE(
        loadCustomModelConfig("/no/such/file.cfg", &config, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace recstack
