/**
 * @file
 * Tests for the `gpulat bench` harness: every suite gate passes and
 * fails on synthetic records (gates are pure functions of records,
 * so no simulation is needed), the invariance comparator, the exit
 * code and `gates_ok` of a failing suite, and the suite table.
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "api/bench.hh"
#include "api/workload_registry.hh"

namespace gpulat {
namespace {

const BenchSuite &
suite(const std::string &name)
{
    for (const BenchSuite &s : benchSuites()) {
        if (s.name == name)
            return s;
    }
    ADD_FAILURE() << "no suite " << name;
    return benchSuites().front();
}

/** The result of @p gate over @p records (full-mode gates). */
GateResult
gate(const std::string &suite_name, const std::string &gate_name,
     const Records &records)
{
    for (const auto &[name, result] :
         evaluateGates(suite(suite_name), records, false)) {
        if (name == gate_name)
            return result;
    }
    ADD_FAILURE() << "no gate " << gate_name;
    return {};
}

ExperimentRecord
record(std::string workload, std::map<std::string, std::string> params,
       std::map<std::string, std::string> overrides = {},
       std::map<std::string, double> metrics = {})
{
    ExperimentRecord rec;
    rec.gpu = "gf100-sim";
    rec.workload = std::move(workload);
    rec.params = std::move(params);
    rec.overrides = std::move(overrides);
    rec.metrics = std::move(metrics);
    rec.correct = true;
    rec.cycles = 1000;
    return rec;
}

TEST(BenchGates, AllCorrect)
{
    Records records{record("vecadd", {}), record("bfs", {})};
    EXPECT_TRUE(gate("atomics", "all_correct", records).ok);
    records[1].correct = false;
    EXPECT_FALSE(gate("atomics", "all_correct", records).ok);
}

TEST(BenchGates, Table1WithinTenPercentOfThePaper)
{
    // The gf106 L2 probe (half its 256 KiB L2, warm); the paper
    // says 310 cycles.
    ExperimentRecord probe = record(
        "pchase", {{"space", "global"}, {"footprintBytes", "131072"}});
    probe.gpu = "gf106";
    probe.metrics["pchase_cycles_per_access"] = 330.0; // +6.5%
    EXPECT_TRUE(gate("table1", "table1_within_10pct", {probe}).ok);
    probe.metrics["pchase_cycles_per_access"] = 345.0; // +11.3%
    const GateResult bad = gate("table1", "table1_within_10pct", {probe});
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.detail.find("gf106 L2 D$"), std::string::npos)
        << bad.detail;
    // No probe at all is not a pass.
    EXPECT_FALSE(gate("table1", "table1_within_10pct", {}).ok);
}

TEST(BenchGates, ServingP99SpreadUnderSaturatingLoad)
{
    auto cell = [](const char *load, const char *policy, double p99) {
        return record("serve.mixed", {{"load", load}},
                      {{"serving.policy", policy}},
                      {{"serving.p99_latency", p99}});
    };
    // The light load's spread does not count.
    const Records flat{cell("1.000000", "fifo", 10),
                       cell("1.000000", "rr", 20),
                       cell("12.000000", "fifo", 50),
                       cell("12.000000", "rr", 50)};
    EXPECT_FALSE(
        gate("serving", "p99_spread_across_policies", flat).ok);
    Records spread = flat;
    spread[3].metrics["serving.p99_latency"] = 60;
    EXPECT_TRUE(
        gate("serving", "p99_spread_across_policies", spread).ok);
}

TEST(BenchGates, DdrMovesTheLoadedBreakdownAndTheGridSplits)
{
    auto grid = [](const char *map, double stalls, double conflicts,
                   double latency) {
        return record("vecadd", {{"n", "65536"}},
                      {{"mem.dram.model", "ddr"}, {"mem.dram.map", map}},
                      {{"dram_refresh_stall_cycles", stalls},
                       {"dram_row_conflict_pct", conflicts},
                       {"mean_load_latency", latency}});
    };
    // A simple-model cell and the chase ladder never count.
    const ExperimentRecord simple = record(
        "vecadd", {{"n", "65536"}}, {{"mem.dram.model", "simple"}},
        {{"dram_refresh_stall_cycles", 5},
         {"dram_row_conflict_pct", 5},
         {"mean_load_latency", 900}});
    const Records good{simple, grid("row", 10, 2.5, 400),
                       grid("bg", 0, 0, 410)};
    EXPECT_TRUE(gate("dram", "ddr_refresh_stalls", good).ok);
    EXPECT_TRUE(gate("dram", "ddr_row_conflicts", good).ok);
    EXPECT_TRUE(gate("dram", "grid_splits_latency", good).ok);

    const Records bad{simple, grid("row", 0, 0, 400),
                      grid("bg", 10, 2.5, 400)};
    EXPECT_FALSE(gate("dram", "ddr_refresh_stalls", bad).ok);
    EXPECT_FALSE(gate("dram", "ddr_row_conflicts", bad).ok);
    EXPECT_FALSE(gate("dram", "grid_splits_latency", bad).ok);
}

TEST(BenchGates, TickJobsLadderAndSmParallelVerdict)
{
    // Ladder points differ only in engine.tickJobs, which records
    // never carry, so they share a cell identity.
    auto point = [](double sm_parallel) {
        ExperimentRecord rec = record("gemm", {{"n", "128"}},
                                      {{"numSms", "8"}},
                                      {{"analysis.sm_parallel",
                                        sm_parallel}});
        rec.counters["issued"] = 42;
        return rec;
    };
    Records ladder{point(1), point(1), point(0)};
    ladder[2].workload = "vecadd";
    EXPECT_TRUE(gate("intrasim", "tick_jobs_ladder_identical", ladder).ok);
    EXPECT_TRUE(gate("intrasim", "some_cell_sm_parallel", ladder).ok);

    ladder[1].counters["issued"] = 43;
    EXPECT_FALSE(
        gate("intrasim", "tick_jobs_ladder_identical", ladder).ok);
    EXPECT_FALSE(gate("intrasim", "some_cell_sm_parallel",
                      {point(0), point(0)})
                     .ok);
}

TEST(BenchGates, QuickRunsCheckCorrectnessOnly)
{
    const GateResults gates =
        evaluateGates(suite("dram"), {record("vecadd", {})}, true);
    ASSERT_EQ(gates.size(), 1u);
    EXPECT_EQ(gates[0].first, "all_correct");
}

TEST(BenchInvariance, ComparatorFlagsOneCounter)
{
    Records a{record("bfs", {{"nodes", "1024"}}),
              record("bfs", {{"nodes", "4096"}})};
    a[1].counters["l1.hits"] = 7;
    Records b = a;
    EXPECT_TRUE(compareRecords(a, b, false).ok);

    b[1].counters["l1.hits"] = 8;
    const GateResult diff = compareRecords(a, b, false);
    EXPECT_FALSE(diff.ok);
    EXPECT_NE(diff.detail.find("cell 1"), std::string::npos)
        << diff.detail;
    EXPECT_FALSE(compareRecords(a, {a[0]}, false).ok);

    // idleFastForward runs differ in their mode override and their
    // skip counters; only the simulated cycles must agree.
    b[1].overrides["idleFastForward"] = "off";
    EXPECT_TRUE(compareRecords(a, b, true).ok);
    b[1].cycles += 1;
    EXPECT_FALSE(compareRecords(a, b, true).ok);
}

TEST(BenchHarness, FailedGateFailsTheDocumentAndTheExit)
{
    BenchSuite tiny{
        .name = "tiny",
        .title = "one small vecadd",
        .sweeps = {{[] {
            ExperimentSpec s;
            s.gpu = "gf106";
            s.workload = "vecadd";
            s.params = {"n=256"};
            return s;
        }()}},
    };
    BenchOptions opts;
    opts.jobs = 1;
    opts.jsonOuts = {"-"};

    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(runBench(tiny, opts, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("\"schema\": \"gpulat.bench.v1\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"gates_ok\": true"), std::string::npos);

    tiny.gates = {{"never", [](const Records &) {
                       return GateResult{false, "synthetic"};
                   }}};
    std::ostringstream out2;
    EXPECT_EQ(runBench(tiny, opts, out2, err), 1);
    EXPECT_NE(out2.str().find("\"gates_ok\": false"), std::string::npos)
        << out2.str();
    EXPECT_NE(out2.str().find("\"name\": \"never\", \"ok\": false"),
              std::string::npos);
}

TEST(BenchSuites, NamesAreUniqueAndEveryCellExpands)
{
    std::set<std::string> names;
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const BenchSuite &s : benchSuites()) {
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
        for (const bool quick : {false, true}) {
            const auto cells = suiteCells(s, quick);
            EXPECT_FALSE(cells.empty()) << s.name;
            for (const ExperimentSpec &cell : cells) {
                EXPECT_NO_THROW((void)buildConfig(cell)) << s.name;
                EXPECT_NE(reg.find(cell.workload), nullptr) << s.name;
            }
        }
    }
    EXPECT_TRUE(names.count("determinism"));
}

} // namespace
} // namespace gpulat
