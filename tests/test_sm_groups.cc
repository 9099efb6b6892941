/**
 * @file
 * Intra-simulation tick parallelism with SM cores on the
 * coordinator: byte identity of experiment output across tick-jobs
 * values, the per-SM request-id pools behind the launch activity
 * signature, and the engine's work-stealing worker pool under
 * deliberately uneven group sizes.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "api/stat_sink.hh"
#include "engine/tick_engine.hh"
#include "gpu/gpu.hh"
#include "isa/kernel.hh"

namespace gpulat {
namespace {

// ------------------------------- record identity across schedules

std::string
renderRecord(const ExperimentRecord &rec)
{
    std::ostringstream os;
    JsonSink sink(os);
    sink.write(rec);
    sink.finish();
    return os.str();
}

ExperimentRecord
runWith(const std::string &workload,
        const std::vector<std::string> &params,
        const std::vector<std::string> &overrides)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = workload;
    spec.params = params;
    spec.overrides = overrides;
    return runExperiment(spec);
}

TEST(TickJobsDeterminism, ComputeHeavyOutputIsByteIdentical)
{
    // A compute-heavy workload must produce byte-identical records
    // at tick-jobs 1 and 8 (warp-scheduler stress via high warp
    // occupancy).
    const std::vector<std::string> params{"n=32768", "fmaDepth=48"};
    const auto a = runWith("compute_stream", params,
                           {"sm.warpSlots=48"});
    const auto b = runWith(
        "compute_stream", params,
        {"sm.warpSlots=48", "engine.tickJobs=8"});
    EXPECT_EQ(renderRecord(a), renderRecord(b));
    EXPECT_GT(a.cycles, 0u);
}

TEST(TickJobsDeterminism, NonUnityClockRatiosStayByteIdentical)
{
    const std::vector<std::string> ratios{"dramClock=1/2",
                                          "icntClock=2/3",
                                          "l2Clock=3/4"};
    auto with_jobs = ratios;
    with_jobs.push_back("engine.tickJobs=8");
    const auto a = runWith("vecadd", {"n=16384"}, ratios);
    const auto b = runWith("vecadd", {"n=16384"}, with_jobs);
    EXPECT_EQ(renderRecord(a), renderRecord(b));
}

// --------------------------------------- per-SM request-id pools

TEST(RequestIdPools, SumMatchesAcrossTickJobsAndLaunches)
{
    // The watchdog's activity signature sums the per-SM pools; the
    // sum must be schedule-independent and must keep growing across
    // launches so the signature keeps moving.
    auto runOnce = [](std::size_t jobs) {
        GpuConfig cfg = makeConfig("gf106");
        cfg.numSms = 4;
        cfg.deviceMemBytes = 32 * 1024 * 1024;
        cfg.engine.tickJobs = jobs;
        Gpu gpu(cfg);

        KernelBuilder b("touch");
        b.s2r(0, SpecialReg::Tid)
            .s2r(1, SpecialReg::Ctaid)
            .s2r(2, SpecialReg::Ntid)
            .imad(0, 1, 2, 0)
            .aluImm(Opcode::SHL, 3, 0, 3)
            .movParam(4, 0)
            .alu(Opcode::IADD, 4, 4, 3)
            .ld(MemSpace::Global, 5, 4)
            .alu(Opcode::IADD, 5, 5, 5)
            .st(MemSpace::Global, 4, 5)
            .exit();
        const Kernel kernel = b.finalize();
        const Addr base = gpu.alloc(64 * 1024);

        std::vector<std::uint64_t> totals;
        std::uint64_t sum = 0;
        for (int launch = 0; launch < 2; ++launch) {
            gpu.launch(kernel, 8, 128, {base});
            sum = 0;
            for (unsigned s = 0; s < cfg.numSms; ++s)
                sum += gpu.sm(s).requestsIssued();
            totals.push_back(sum);
        }
        EXPECT_GT(totals[0], 0u);
        EXPECT_GT(totals[1], totals[0]); // signature keeps moving
        return totals;
    };

    EXPECT_EQ(runOnce(8), runOnce(1));
}

// --------------------------------- work stealing on uneven groups

/** Ticks into component-private state only (group-parallel safe). */
struct PrivateLogComponent : Clocked
{
    void tick(Cycle now) override { log.push_back(now); }
    Cycle nextEventAt(Cycle now) const override { return now; }
    std::vector<Cycle> log;
};

TEST(WorkStealing, UnevenGroupsMatchSerialTicking)
{
    // Many groups of very different sizes: workers claim batches
    // one at a time from the shared cursor, so fast workers steal
    // the tail batches from slow ones. Logs and per-group tick
    // counters must still match the serial schedule exactly.
    constexpr unsigned kGroups = 24;
    auto run = [](std::size_t tick_jobs) {
        TickEngine engine;
        engine.setMode(IdleFastForward::PerDomain);
        engine.setTickJobs(tick_jobs);
        ClockDomain &core =
            engine.addDomain("core", ClockRatio{1, 1});
        std::vector<std::unique_ptr<PrivateLogComponent>> comps;
        for (unsigned g = 0; g < kGroups; ++g) {
            const unsigned group = engine.addGroup(
                std::string("g") + std::to_string(g));
            // group g holds 1 + (g % 5) components: batch costs
            // differ by 5x across the section.
            for (unsigned m = 0; m <= g % 5; ++m) {
                comps.push_back(
                    std::make_unique<PrivateLogComponent>());
                engine.add(core, *comps.back(), group);
            }
        }
        for (int i = 0; i < 64; ++i)
            engine.step();

        std::vector<std::vector<Cycle>> logs;
        for (const auto &comp : comps)
            logs.push_back(comp->log);
        std::vector<std::uint64_t> ticks;
        for (unsigned g = 0; g < engine.numGroups(); ++g)
            ticks.push_back(engine.groupTicksRun(g));
        return std::make_pair(logs, ticks);
    };

    const auto serial = run(1);
    for (std::size_t jobs : {2u, 4u, 8u}) {
        const auto parallel = run(jobs);
        EXPECT_EQ(serial.first, parallel.first) << jobs;
        EXPECT_EQ(serial.second, parallel.second) << jobs;
    }
}

} // namespace
} // namespace gpulat
