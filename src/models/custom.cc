#include "models/custom.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "models/builder_util.h"

namespace recstack {
namespace {

/** Parse a whole token as a number; false on any leftover character. */
template <class T>
bool
parseWhole(const std::string& token, T* out)
{
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

bool
parseDims(std::istringstream& iss, std::vector<int64_t>* dims)
{
    std::string token;
    while (iss >> token) {
        int64_t v = 0;
        if (!parseWhole(token, &v) || v <= 0) {
            return false;
        }
        dims->push_back(v);
    }
    return !dims->empty();
}

}  // namespace

bool
parseCustomModelConfig(std::istream& in, CustomModelConfig* config,
                       std::string* error)
{
    auto fail = [error](const std::string& msg) {
        if (error != nullptr) {
            *error = msg;
        }
        return false;
    };

    *config = CustomModelConfig{};
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line = line.substr(0, hash);
        }
        std::istringstream iss(line);
        std::string keyword;
        if (!(iss >> keyword)) {
            continue;  // blank / comment-only line
        }
        const std::string at_line =
            " at line " + std::to_string(line_no);
        std::string extra;  // a token past a one-value keyword

        if (keyword == "name") {
            if (!(iss >> config->name)) {
                return fail("missing model name" + at_line);
            }
            if (iss >> extra) {
                return fail("unexpected '" + extra +
                            "' after the model name" + at_line);
            }
        } else if (keyword == "dense") {
            std::string value;
            if (!(iss >> value) ||
                !parseWhole(value, &config->denseDim) ||
                config->denseDim <= 0) {
                return fail("bad dense dimension '" + value + "'" +
                            at_line);
            }
            if (iss >> extra) {
                return fail("unexpected '" + extra +
                            "' after the dense dimension" + at_line);
            }
        } else if (keyword == "bottom") {
            if (!parseDims(iss, &config->bottom)) {
                return fail("bad bottom widths" + at_line);
            }
        } else if (keyword == "top") {
            if (!parseDims(iss, &config->top)) {
                return fail("bad top widths" + at_line);
            }
        } else if (keyword == "table") {
            CustomModelConfig::Table table;
            std::string token;
            while (iss >> token) {
                const size_t eq = token.find('=');
                const std::string key =
                    eq == std::string::npos ? token
                                            : token.substr(0, eq);
                const std::string value =
                    eq == std::string::npos ? "" : token.substr(eq + 1);
                const auto bad = [&](const char* want) {
                    return fail("table attribute '" + key + "' " + want +
                                ", got '" + token + "'" + at_line);
                };
                if (key == "rows" || key == "dim" || key == "lookups") {
                    int64_t* field = key == "rows"  ? &table.rows
                                     : key == "dim" ? &table.dim
                                                    : &table.lookups;
                    if (!parseWhole(value, field)) {
                        return bad("needs a whole number");
                    }
                } else if (key == "zipf") {
                    if (!parseWhole(value, &table.zipf) ||
                        !std::isfinite(table.zipf) || table.zipf < 0.0) {
                        return bad("needs a finite number >= 0");
                    }
                } else if (key == "weighted") {
                    if (eq != std::string::npos) {
                        return bad("takes no value");
                    }
                    table.weighted = true;
                } else {
                    return fail("unknown table attribute '" + key +
                                "'" + at_line);
                }
            }
            if (table.rows <= 0 || table.dim <= 0 ||
                table.lookups <= 0) {
                return fail("table needs positive rows/dim/lookups" +
                            at_line);
            }
            config->tables.push_back(table);
        } else {
            return fail("unknown keyword '" + keyword + "'" + at_line);
        }
    }

    if (config->denseDim <= 0) {
        return fail("config must declare 'dense <dim>'");
    }
    if (config->bottom.empty()) {
        return fail("config must declare 'bottom <widths...>'");
    }
    if (config->top.empty()) {
        return fail("config must declare 'top <widths...>'");
    }
    if (config->tables.empty()) {
        return fail("config must declare at least one 'table'");
    }
    return true;
}

bool
loadCustomModelConfig(const std::string& path, CustomModelConfig* config,
                      std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot open '" + path + "'";
        }
        return false;
    }
    return parseCustomModelConfig(in, config, error);
}

Model
buildCustomModel(const CustomModelConfig& config)
{
    Model model(ModelId::kCustom, config.name);
    GraphBuilder g(&model);
    model.features.latentDim = static_cast<int>(config.tables[0].dim);

    const std::string dense = g.denseInput("dense", config.denseDim);
    std::string bottom_out =
        g.mlp(dense, config.denseDim, config.bottom, /*top=*/false);
    bottom_out = g.relu(bottom_out);

    std::vector<std::string> pooled;
    pooled.push_back(bottom_out);
    int64_t interact_dim = config.bottom.back();
    for (size_t t = 0; t < config.tables.size(); ++t) {
        const auto& table = config.tables[t];
        pooled.push_back(g.embeddingBag("emb" + std::to_string(t),
                                        table.rows, table.dim,
                                        table.lookups, table.zipf,
                                        table.weighted));
        interact_dim += table.dim;
    }

    const std::string interact = g.concat(pooled);
    const std::string top_out =
        g.mlp(interact, interact_dim, config.top, /*top=*/true);
    g.finish(top_out);
    model.features.lookupsPerTable /=
        std::max(1, model.features.numTables);
    model.net.validate();
    return model;
}

}  // namespace recstack
