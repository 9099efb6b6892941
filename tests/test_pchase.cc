/**
 * @file
 * Tests for the pointer-chase microbenchmark machinery: chain
 * construction, kernel generation, and that measurements respond to
 * cache capacity the way the methodology assumes.
 */

#include <gtest/gtest.h>

#include "microbench/pchase.hh"

namespace gpulat {
namespace {

GpuConfig
smallFermi()
{
    GpuConfig cfg = makeGF106();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.deviceMemBytes = 64 * 1024 * 1024;
    return cfg;
}

TEST(PChase, ChaseKernelHasExpectedShape)
{
    const Kernel k = buildChaseKernel(MemSpace::Global, 4, 16);
    // 2 movs + 4 warmup + clock + 16 timed + clock + 1 trailing
    // (untimed, anti-vacuous-verification) + isub + mov + 2 st +
    // exit
    EXPECT_EQ(k.size(), 2u + 4 + 1 + 16 + 1 + 1 + 1 + 1 + 2 + 1);
    unsigned loads = 0;
    for (const auto &inst : k.code)
        if (inst.isLoad())
            ++loads;
    EXPECT_EQ(loads, 21u);
}

TEST(PChase, L1ResidentChaseIsFastAndUniform)
{
    Gpu gpu(smallFermi());
    PChaseConfig pc;
    pc.footprintBytes = 4 * 1024; // well inside 16KB L1
    pc.strideBytes = 128;
    pc.timedAccesses = 256;
    const PChaseResult r = runPointerChase(gpu, pc);
    // L1-hit territory: tens of cycles, far below L2 latency.
    EXPECT_GT(r.cyclesPerAccess, 10.0);
    EXPECT_LT(r.cyclesPerAccess, 100.0);
}

TEST(PChase, BeyondL1FootprintIsSlower)
{
    GpuConfig cfg = smallFermi();
    const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;

    Gpu inside(cfg);
    PChaseConfig pc;
    pc.footprintBytes = l1 / 2;
    pc.timedAccesses = 256;
    const double fast = runPointerChase(inside, pc).cyclesPerAccess;

    Gpu outside(cfg);
    pc.footprintBytes = l1 * 4;
    const double slow = runPointerChase(outside, pc).cyclesPerAccess;
    EXPECT_GT(slow, fast * 2.0);
}

TEST(PChase, BeyondL2FootprintIsSlowest)
{
    GpuConfig cfg = smallFermi();
    const std::uint64_t l2 = cfg.totalL2Bytes();

    Gpu at_l2(cfg);
    PChaseConfig pc;
    pc.footprintBytes = l2 / 2;
    pc.timedAccesses = 256;
    const double l2_lat = runPointerChase(at_l2, pc).cyclesPerAccess;

    Gpu beyond(cfg);
    pc.footprintBytes = l2 * 2;
    const double dram_lat =
        runPointerChase(beyond, pc).cyclesPerAccess;
    EXPECT_GT(dram_lat, l2_lat * 1.5);
}

TEST(PChase, LocalChaseUsesL1OnKepler)
{
    GpuConfig cfg = makeGK104();
    cfg.numSms = 1;
    cfg.numPartitions = 1;
    cfg.localBytesPerThread = 8 * 1024;

    Gpu gpu(cfg);
    PChaseConfig pc;
    pc.space = MemSpace::Local;
    pc.footprintBytes = 4 * 1024;
    pc.timedAccesses = 256;
    const double local_lat =
        runPointerChase(gpu, pc).cyclesPerAccess;

    Gpu gpu2(cfg);
    pc.space = MemSpace::Global;
    const double global_lat =
        runPointerChase(gpu2, pc).cyclesPerAccess;

    // Kepler: local hits the L1, global can't (L2 at best).
    EXPECT_LT(local_lat, global_lat * 0.5);
}

TEST(PChase, MeasurementIsDeterministic)
{
    auto measure = [] {
        Gpu gpu(smallFermi());
        PChaseConfig pc;
        pc.footprintBytes = 8 * 1024;
        pc.timedAccesses = 128;
        return runPointerChase(gpu, pc).cyclesPerAccess;
    };
    EXPECT_DOUBLE_EQ(measure(), measure());
}

TEST(PChase, RejectsBadStride)
{
    Gpu gpu(smallFermi());
    PChaseConfig pc;
    pc.strideBytes = 12; // not a multiple of 8
    EXPECT_THROW(runPointerChase(gpu, pc), PanicError);
}

/** Cycles per access of a warm chase on a fresh Gpu. */
double
chase(const GpuConfig &cfg, std::uint64_t footprint,
      std::uint64_t stride, std::uint64_t timed)
{
    Gpu gpu(cfg);
    PChaseConfig pc;
    pc.footprintBytes = footprint;
    pc.strideBytes = stride;
    pc.timedAccesses = timed;
    return runPointerChase(gpu, pc).cyclesPerAccess;
}

TEST(PChase, StrideLatencyRisesUpToTheLineSizeThenIsFlat)
{
    // Far beyond the L1, a stride below the line size misses on one
    // access in lineBytes / stride; from the line size on, every
    // access misses.
    const GpuConfig cfg = smallFermi();
    const std::uint64_t fp = cfg.sm.l1Cache.capacityBytes * 8;
    const double at_line = chase(cfg, fp, cfg.sm.lineBytes, 192);
    double prev = 0.0;
    for (std::uint64_t stride = 8; stride < cfg.sm.lineBytes;
         stride *= 2) {
        const double lat = chase(cfg, fp, stride, 192);
        EXPECT_GT(lat, prev) << "stride " << stride;
        EXPECT_LT(lat, at_line * 0.95) << "stride " << stride;
        prev = lat;
    }
    EXPECT_NEAR(chase(cfg, fp, cfg.sm.lineBytes * 2, 192), at_line,
                at_line * 0.05);
}

TEST(PChase, LatencyStepsAtEachCacheCapacity)
{
    // Flat up to a cache's capacity, a step beyond it.
    const GpuConfig cfg = smallFermi();
    for (const std::uint64_t cap :
         {std::uint64_t{cfg.sm.l1Cache.capacityBytes},
          cfg.totalL2Bytes()}) {
        const double half = chase(cfg, cap / 2, 128, 128);
        const double full = chase(cfg, cap, 128, 128);
        EXPECT_NEAR(full, half, half * 0.05) << "capacity " << cap;
        EXPECT_GT(chase(cfg, cap * 4, 128, 128), full * 1.5)
            << "capacity " << cap;
    }
}

} // namespace
} // namespace gpulat
