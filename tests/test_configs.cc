/**
 * @file
 * Config-level sanity tests: partition interleaving, preset
 * invariants, and launch-time validation.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "isa/assembler.hh"

// Sanitizer allocators abort on a request they cannot serve unless
// told to return null as libc's does; UnreservableDeviceMemoryIsFatal
// needs the null.
extern "C" const char *
__asan_default_options()
{
    return "allocator_may_return_null=1";
}

extern "C" const char *
__tsan_default_options()
{
    return "allocator_may_return_null=1";
}

namespace gpulat {
namespace {

TEST(Config, PartitionMapRoundRobinsLines)
{
    GpuConfig cfg = makeGF100Sim();
    ASSERT_EQ(cfg.numPartitions, 6u);
    for (Addr line = 0; line < 64; ++line) {
        EXPECT_EQ(cfg.partitionOf(line * 128),
                  static_cast<unsigned>(line % 6));
        // All addresses within one line map to the same partition.
        EXPECT_EQ(cfg.partitionOf(line * 128),
                  cfg.partitionOf(line * 128 + 127));
    }
}

TEST(Config, TotalL2AggregatesSlices)
{
    const GpuConfig gf106 = makeGF106();
    EXPECT_EQ(gf106.totalL2Bytes(),
              gf106.partition.l2Cache.capacityBytes *
                  gf106.numPartitions);
    EXPECT_EQ(makeGT200().totalL2Bytes(), 0u);
}

TEST(Config, CachesTakeTheirLineSizeAndWritePolicyFromTheModel)
{
    // sm.lineBytes is the one line-size knob; the L1 writes through
    // and the L2 writes back whatever the cache params say.
    for (const std::uint32_t line : {64u, 128u, 256u}) {
        GpuConfig cfg = makeGF106();
        cfg.sm.lineBytes = line;
        cfg.sm.l1Cache.lineBytes = 32;
        cfg.sm.l1Cache.write = WritePolicy::WriteBack;
        cfg.partition.lineBytes = 32;
        cfg.partition.l2Cache.lineBytes = 32;
        cfg.partition.l2Cache.write = WritePolicy::WriteThrough;
        Gpu gpu(cfg);
        const CacheParams &l1 = gpu.sm(0).l1()->params();
        EXPECT_EQ(l1.lineBytes, line);
        EXPECT_EQ(l1.write, WritePolicy::WriteThrough);
        const CacheParams &l2 = gpu.partition(0).l2()->params();
        EXPECT_EQ(l2.lineBytes, line);
        EXPECT_EQ(l2.write, WritePolicy::WriteBack);
    }
}

TEST(Config, Gf100MatchesThePapersMachine)
{
    const GpuConfig cfg = makeGF100Sim();
    EXPECT_EQ(cfg.numSms, 15u);
    EXPECT_EQ(cfg.numPartitions, 6u);
    EXPECT_EQ(cfg.sm.warpSlots, 48u);
    EXPECT_EQ(cfg.partition.sched, DramSchedPolicy::FRFCFS);
}

TEST(LaunchValidation, TooManyParamsIsFatal)
{
    Gpu gpu(makeGF106());
    const Kernel k = assemble("exit\n");
    const std::vector<RegValue> params(kMaxParams + 1, 0);
    EXPECT_THROW(gpu.launch(k, 1, 32, params), FatalError);
}

TEST(LaunchValidation, DeviceMemoryExhaustionIsFatal)
{
    GpuConfig cfg = makeGF106();
    cfg.deviceMemBytes = 1024 * 1024;
    Gpu gpu(cfg);
    gpu.alloc(512 * 1024);
    EXPECT_THROW(gpu.alloc(1024 * 1024), FatalError);
    // A size whose end wraps past 2^64 back inside the store, and an
    // alignment past its end; neither may move the break.
    EXPECT_THROW(gpu.alloc(~std::uint64_t{0} - 127), FatalError);
    EXPECT_THROW(gpu.alloc(64, std::uint64_t{1} << 63), FatalError);
    EXPECT_EQ(gpu.memory().allocated(), 512u * 1024);
}

TEST(LaunchValidation, UnreservableDeviceMemoryIsFatal)
{
    // 2^62 bytes exceed any 64-bit address space, so the reservation
    // fails without committing memory.
    GpuConfig cfg = makeGF106();
    cfg.deviceMemBytes = std::uint64_t{1} << 62;
    try {
        Gpu gpu(cfg);
        FAIL() << "a 2^62-byte device memory was reserved";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deviceMemBytes"), std::string::npos) << what;
        EXPECT_NE(what.find("4611686018427387904"), std::string::npos)
            << what;
    }
}

TEST(LaunchValidation, OutOfRangeAccessIsFatal)
{
    // The last five start 4 bytes below address 0: addr + 8 wraps
    // past 2^64, so a check of the form addr + 8 > size lets them by.
    for (const char *src : {
             R"(
                 mov r1, 0x40000000
                 ld.global r2, [r1]
                 st.global [r1], r2
                 exit
             )",
             R"(
                 mov r1, -4
                 ld.global r2, [r1]
                 exit
             )",
             R"(
                 mov r1, -4
                 st.global [r1], r1
                 exit
             )",
             R"(
                 mov r1, -4
                 mov r2, 1
                 atom.add r3, [r1], r2
                 exit
             )",
             R"(
                 .shared 64
                 mov r1, -4
                 ld.shared r2, [r1]
                 exit
             )",
             R"(
                 mov r1, -4
                 st.local [r1], r1
                 exit
             )"}) {
        SCOPED_TRACE(src);
        Gpu gpu(makeGF106());
        const Kernel k = assemble(src);
        EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
    }
}

TEST(LaunchValidation, LocalOverflowIsFatal)
{
    GpuConfig cfg = makeGF106();
    cfg.localBytesPerThread = 64;
    Gpu gpu(cfg);
    const Kernel k = assemble(R"(
        mov r1, 128
        st.local [r1], r1
        exit
    )");
    EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
}

TEST(LaunchValidation, SharedOverflowIsFatal)
{
    Gpu gpu(makeGF106());
    const Kernel k = assemble(R"(
        .shared 64
        mov r1, 128
        st.shared [r1], r1
        exit
    )");
    EXPECT_THROW(gpu.launch(k, 1, 1, {}), FatalError);
}

TEST(LaunchValidation, AllPresetsRunAKernel)
{
    for (const char *name :
         {"gt200", "gf106", "gk104", "gm107", "gf100-sim"}) {
        GpuConfig cfg = makeConfig(name);
        cfg.deviceMemBytes = 8 * 1024 * 1024;
        Gpu gpu(cfg);
        const Kernel k = assemble(R"(
            s2r r0, tid
            shl r1, r0, 3
            mov r2, param0
            iadd r2, r2, r1
            st.global [r2], r0
            exit
        )");
        const Addr buf = gpu.alloc(64 * 8);
        gpu.launch(k, 2, 32, {buf});
        std::uint64_t v = 0;
        gpu.copyFromDevice(&v, buf + 5 * 8, 8);
        EXPECT_EQ(v, 5u) << name;
    }
}

} // namespace
} // namespace gpulat
