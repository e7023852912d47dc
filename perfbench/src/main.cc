/**
 * @file
 * perfbench: host-performance benchmark of recstack.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --run-dir DIR --reference FILE [--tiny] [--corrupt]
 *   perfbench --write-reference FILE
 *
 * Prints the host block, one METRIC line per metric (value, unit,
 * sample count), and as its last line the JSON result. The full record
 * of the run (host block, every metric) is also written to
 * DIR/<workload>-seed<N>-trace<T>.json. perfbench/run.py builds this
 * binary and is the command to use; see perfbench/METRICS.md.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "characterize|infer-large|serve-small|store-disk --seed N "
                 "--seconds S --trace 0|1 --run-dir DIR --reference FILE "
                 "[--tiny] [--corrupt]\n       perfbench --write-reference "
                 "FILE\n",
                 why.c_str());
    std::exit(2);
}

std::string
recordJson(const Options& opts, const HostInfo& host, const Report& report)
{
    std::string out = "{\"workload\": " + jsonString(opts.workload) +
                      ", \"seed\": " + std::to_string(opts.seed) +
                      ", \"seconds\": " + jsonNumber(opts.seconds) +
                      ", \"trace\": " + (opts.trace ? "1" : "0") +
                      ", \"tiny\": " + (opts.tiny ? "true" : "false") +
                      ", \"host\": " + hostJson(host) +
                      ", \"attempted\": " + std::to_string(report.attempted()) +
                      ", \"failed\": " + std::to_string(report.failed()) +
                      ", \"metrics\": [";
    bool first = true;
    for (const Metric& m : report.metrics()) {
        out += first ? "" : ", ";
        first = false;
        out += "{\"name\": " + jsonString(m.name) +
               ", \"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) +
               ", \"note\": " + jsonString(m.note) + "}";
    }
    return out + "]}\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opts.workload = value();
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value());
                haveSeed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value());
                haveSeconds = true;
            } else if (arg == "--trace") {
                opts.trace = std::stoi(value()) != 0;
                haveTrace = true;
            } else if (arg == "--run-dir") {
                opts.runDir = value();
            } else if (arg == "--reference") {
                opts.reference = value();
            } else if (arg == "--tiny") {
                opts.tiny = true;
            } else if (arg == "--corrupt") {
                opts.corrupt = true;
            } else if (arg == "--write-reference") {
                writeCharacterizeReference(value());
                return 0;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace || opts.runDir.empty() ||
        opts.reference.empty() || !(opts.seconds > 0.0)) {
        usage("--seed, --seconds > 0, --trace, --run-dir and --reference "
              "are required");
    }

    void (*run)(const Options&, Report&) = nullptr;
    if (opts.workload == "characterize") {
        run = runCharacterize;
    } else if (opts.workload == "infer-large") {
        run = runInferLarge;
    } else if (opts.workload == "serve-small") {
        run = runServeSmall;
    } else if (opts.workload == "store-disk") {
        run = runStoreDisk;
    } else {
        usage("unknown workload '" + opts.workload + "'");
    }

    HostInfo host = probeHostStart();
    Report report;
    try {
        run(opts, report);
    } catch (const std::exception& e) {
        report.attempt();
        report.fail(std::string("exception: ") + e.what());
    }
    report.add("peak_rss_mb", peakRssMb(), 1, "getrusage ru_maxrss");
    if (opts.trace) {
        report.completePerLayer();
    }
    probeHostEnd(&host);

    std::printf("HOST %s\n", hostJson(host).c_str());
    std::printf("%s", report.humanText().c_str());
    const std::string record = opts.runDir + "/" + opts.workload + "-seed" +
                               std::to_string(opts.seed) + "-trace" +
                               (opts.trace ? "1" : "0") + ".json";
    std::ofstream(record) << recordJson(opts, host, report);
    std::printf("%s\n", report.resultJson(opts.trace).c_str());
    return 0;
}
