#include "platform/platform.h"

#include <string>

namespace recstack {

CpuConfig
broadwellConfig()
{
    CpuConfig c;
    c.name = "Xeon E5-2697A (Broadwell)";
    c.uarch = "Broadwell";
    c.freqGHz = 2.6;
    c.pipelineWidth = 4;
    c.simdBits = 256;   // AVX-2
    c.vnni = false;

    c.l1i = {32 * 1024, 8, 4};
    c.l1d = {32 * 1024, 8, 4};
    c.l2 = {256 * 1024, 8, 12};
    c.l3 = {40ull * 1024 * 1024, 20, 42};
    c.l3Policy = InclusionPolicy::kInclusive;

    c.dsbCapacityUops = 1536;
    c.dsbUopsPerCycle = 4.0;
    c.miteUopsPerCycle = 3.0;
    c.dsbSwitchPenalty = 3;
    c.dsbRefillUopsPerFlush = 64;

    c.bpTableBits = 14;
    c.bpHistoryBits = 12;
    c.mispredictPenalty = 18;

    c.dramGBs = 77.0;      // DDR4-2400, 4 channels
    c.dramLatencyCycles = 230;
    return c;
}

CpuConfig
cascadeLakeConfig()
{
    CpuConfig c;
    c.name = "Xeon Gold 6242 (Cascade Lake)";
    c.uarch = "CascadeLake";
    c.freqGHz = 2.8;
    c.pipelineWidth = 4;
    c.simdBits = 512;   // AVX-512 + VNNI
    c.vnni = true;

    c.l1i = {32 * 1024, 8, 4};
    c.l1d = {32 * 1024, 8, 4};
    c.l2 = {1024 * 1024, 16, 14};
    c.l3 = {22ull * 1024 * 1024, 11, 44};
    c.l3Policy = InclusionPolicy::kExclusive;

    c.dsbCapacityUops = 1536;
    c.dsbUopsPerCycle = 6.0;
    c.miteUopsPerCycle = 3.5;
    c.dsbSwitchPenalty = 2;
    c.dsbRefillUopsPerFlush = 48;

    // The paper observes markedly less bad speculation on Cascade
    // Lake (Fig. 15) and cheaper direct-jump redirects (Agner Fog);
    // modeled as a larger gshare and a smaller penalty.
    c.bpTableBits = 16;
    c.bpHistoryBits = 16;
    c.mispredictPenalty = 15;
    c.bpLoopPredictor = true;
    c.fpAddPorts = 2;  // Skylake onward: FP add on ports 0 and 1

    c.dramGBs = 131.0;     // DDR4-2933, 6 channels
    c.dramLatencyCycles = 210;
    return c;
}

GpuConfig
gtx1080TiConfig()
{
    GpuConfig g;
    g.name = "GTX 1080 Ti (Pascal)";
    g.uarch = "Pascal";
    g.smCount = 28;
    g.freqGHz = 1.48;
    // Sustained fp32 throughput Caffe2's GEMM kernels extract from
    // Pascal on these layer shapes (well below the 11.3 TF peak).
    g.effTflops = 1.25;
    g.memGBs = 484.4;          // GDDR5X
    g.gatherEfficiency = 0.09; // GDDR5X random-access penalty
    g.streamEfficiency = 0.70;
    g.kernelLaunchSec = 7.0e-6;
    g.hostDispatchSec = 3.0e-6;
    // Effective host-to-device rate of the framework's staged small
    // per-tensor copies (far below the PCIe 3.0 x16 line rate).
    g.pcieGBs = 1.0;
    g.pcieLatencySec = 4.0e-6;
    g.smallKernelFloorSec = 3.5e-6;
    return g;
}

GpuConfig
t4Config()
{
    GpuConfig g;
    g.name = "T4 (Turing)";
    g.uarch = "Turing";
    g.smCount = 40;
    g.freqGHz = 0.58;
    // Turing's 40 SMs and improved scheduling extract more sustained
    // GEMM throughput in framework kernels despite the lower clock.
    g.effTflops = 1.55;
    g.memGBs = 320.0;          // GDDR6
    g.gatherEfficiency = 0.18; // GDDR6: better random-access behaviour
    g.streamEfficiency = 0.72;
    g.kernelLaunchSec = 6.0e-6;
    g.hostDispatchSec = 3.0e-6;
    g.pcieGBs = 1.0;
    g.pcieLatencySec = 4.0e-6;
    g.smallKernelFloorSec = 3.0e-6;
    return g;
}

PimConfig
upmemPimConfig()
{
    PimConfig p;
    p.host = broadwellConfig();
    return p;
}

Platform
makeCpuPlatform(const CpuConfig& cfg)
{
    Platform p;
    p.kind = PlatformKind::kCpu;
    p.cpu = cfg;
    return p;
}

Platform
makeGpuPlatform(const GpuConfig& cfg)
{
    Platform p;
    p.kind = PlatformKind::kGpu;
    p.gpu = cfg;
    return p;
}

Platform
makePimPlatform(const PimConfig& cfg)
{
    Platform p;
    p.kind = PlatformKind::kPim;
    p.pim = cfg;
    return p;
}

std::vector<Platform>
allPlatforms()
{
    return {makeCpuPlatform(broadwellConfig()),
            makeCpuPlatform(cascadeLakeConfig()),
            makeGpuPlatform(gtx1080TiConfig()),
            makeGpuPlatform(t4Config())};
}

std::vector<Platform>
allPlatformsWithPim()
{
    std::vector<Platform> platforms = allPlatforms();
    platforms.push_back(makePimPlatform(upmemPimConfig()));
    return platforms;
}

}  // namespace recstack
