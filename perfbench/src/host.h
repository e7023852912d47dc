#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

/**
 * @file
 * The host block every run records: which CPU and kernel tier ran the
 * numbers, and how many cores were effectively available at the start
 * and at the end of the run. A shared 4-vCPU host can swing between
 * about one and four effective cores within minutes, so a run whose
 * probe reads below 0.8 x nproc is marked noisy.
 */

#include <string>

namespace perfbench {

struct HostInfo {
    std::string cpuModel;
    std::string kernelIsa;
    int nproc = 1;
    double effectiveCoresStart = 0.0;
    double effectiveCoresEnd = 0.0;
    bool noisy = false;
};

/** CPU model, kernel tier and nproc; the start probe is taken here. */
HostInfo probeHostStart();

/** Take the end probe and set the noisy flag. */
void probeHostEnd(HostInfo* host);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** The host block as a JSON object. */
std::string hostJson(const HostInfo& host);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
