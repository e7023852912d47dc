#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "report.h"

namespace perfbench {
namespace {

std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/// A fixed amount of dependent integer work (tens of ms on one core).
uint64_t
spin(uint64_t seed)
{
    uint64_t x = seed | 1;
    for (int i = 0; i < 20'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    return x;
}

double
timeSpins(int threads)
{
    std::atomic<uint64_t> sink{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) {
        pool.emplace_back([&sink, t] { sink += spin(t); });
    }
    sink += spin(0);
    for (std::thread& th : pool) {
        th.join();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Spin-scaling probe: the same fixed spin on 1 thread and on nproc
 * threads at once; effective cores = nproc * t(1) / t(nproc).
 */
double
effectiveCores(int nproc)
{
    const double one = std::min(timeSpins(1), timeSpins(1));
    const double all = timeSpins(nproc);
    return std::min<double>(nproc, nproc * one / all);
}

}  // namespace

HostInfo
probeHostStart()
{
    HostInfo host;
    host.cpuModel = cpuModelName();
    host.kernelIsa = recstack::kernelIsaName(recstack::activeKernelIsa());
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    host.effectiveCoresStart = effectiveCores(host.nproc);
    return host;
}

void
probeHostEnd(HostInfo* host)
{
    host->effectiveCoresEnd = effectiveCores(host->nproc);
    const double floor = 0.8 * host->nproc;
    host->noisy = host->effectiveCoresStart < floor ||
                  host->effectiveCoresEnd < floor;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
hostJson(const HostInfo& host)
{
    return "{\"cpu_model\": " + jsonString(host.cpuModel) +
           ", \"kernel_isa\": " + jsonString(host.kernelIsa) +
           ", \"nproc\": " + std::to_string(host.nproc) +
           ", \"effective_cores_start\": " +
           jsonNumber(host.effectiveCoresStart) +
           ", \"effective_cores_end\": " +
           jsonNumber(host.effectiveCoresEnd) +
           ", \"noisy\": " + (host.noisy ? "true" : "false") + "}";
}

}  // namespace perfbench
