#ifndef RECSTACK_MODELS_CUSTOM_H_
#define RECSTACK_MODELS_CUSTOM_H_

/**
 * @file
 * Custom DLRM-style model definition from a small text config, so
 * downstream users can characterize their own architectures without
 * writing a builder:
 *
 *     # my production candidate
 *     name MyRanker
 *     dense 13
 *     bottom 512 256 64
 *     table rows=2000000 dim=64 lookups=40
 *     table rows=500000 dim=64 lookups=10 zipf=0.9 weighted
 *     top 1024 512 1
 *
 * `dense`, `bottom`, at least one `table` and `top` are required.
 * Tables may differ in geometry (unlike the stock RM models). Every
 * line but `table` appears at most once, and so does each attribute
 * within a `table` line.
 */

#include <iosfwd>
#include <string>

#include "models/model.h"

namespace recstack {

/** Parsed custom-model description. */
struct CustomModelConfig {
    std::string name = "Custom";
    int64_t denseDim = 0;
    std::vector<int64_t> bottom;
    std::vector<int64_t> top;
    struct Table {
        int64_t rows = 0;
        int64_t dim = 0;
        int64_t lookups = 1;
        double zipf = 0.75;
        bool weighted = false;
    };
    std::vector<Table> tables;
};

/**
 * Parse a config from a stream.
 * @return false with *error set on malformed input.
 */
bool parseCustomModelConfig(std::istream& in, CustomModelConfig* config,
                            std::string* error);

/** File convenience wrapper. */
bool loadCustomModelConfig(const std::string& path,
                           CustomModelConfig* config, std::string* error);

/** Build the operator graph for a parsed config. */
Model buildCustomModel(const CustomModelConfig& config);

}  // namespace recstack

#endif  // RECSTACK_MODELS_CUSTOM_H_
