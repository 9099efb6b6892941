/**
 * @file
 * Self-test of the benchmark's pure rules on fixed inputs: a wrong
 * pin fails its cell, metric names follow the contract, and
 * table1_max_err_pct equals a hand computation. Exits nonzero on the
 * first mismatch.
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_core.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

void
wrongPinFailsTheCell()
{
    const Pin pinned{544072, 155648};
    Tally tally;
    tally.add(pinViolation(&pinned, 544072, 155648).empty());
    expect(tally.failed == 0, "a matching pin passes");

    const Pin wrongCycles{544073, 155648};
    tally.add(pinViolation(&wrongCycles, 544072, 155648).empty());
    const Pin wrongInstr{544072, 155647};
    tally.add(pinViolation(&wrongInstr, 544072, 155648).empty());
    expect(tally.attempted == 3 && tally.failed == 2,
           "a wrong pinned cycle or instruction count fails its cell");
    expect(std::fabs(tally.failPct() - 200.0 / 3.0) < 1e-12,
           "fail_pct is failed / attempted");
    expect(pinViolation(nullptr, 1, 2).empty(),
           "an unpinned run (non-default seed) is not checked");
}

void
metricNames()
{
    for (const char *ok : {"wall_s", "engine.ticks_run.core",
                           "microbench.cycles_per_access.gf100-sim.l2",
                           "latency.stage_pct.dram_qtosch"})
        expect(validMetricName(ok), std::string("valid name ") + ok);
    for (const char *bad : {"", "_lead", "has space", "slash/name",
                            "pct%", "stage_pct.DRAM(QtoSch)"})
        expect(!validMetricName(bad), std::string("invalid name ") + bad);
}

void
table1MaxErrMatchesHand()
{
    // Paper cycles (Table I) against fixed simulated values.
    const std::vector<Table1Point> points = {
        {440, 438.8}, {45, 45.0},  {310, 310.0},
        {685, 682.7}, {30, 30.0},  {175, 175.0},
        {300, 300.3}, {194, 194.0}, {350, 349.3},
    };
    // By hand: the worst is GF106 DRAM, |682.7 - 685| / 685 =
    // 2.3 / 685 = 0.335766...%.
    expect(std::fabs(table1MaxErrPct(points) - 100.0 * 2.3 / 685.0) <
               1e-9,
           "table1_max_err_pct equals the hand computation");
    // An over-estimate counts like an under-estimate: |50 - 45| / 45.
    expect(std::fabs(table1ErrPct({45, 50}) - 100.0 * 5.0 / 45.0) <
               1e-9,
           "Table-I error is an absolute relative error");
    expect(table1ErrPct({45, 50}) > kTable1TolerancePct,
           "11.1% is outside the 10% tolerance");
    expect(table1MaxErrPct({}) == 0.0, "no published cell, no error");
}

void
traceJsonShape()
{
    Tracer tracer(Clock::now());
    expect(tracer.begin("off", "c", 0) == 0, "a disabled tracer is inert");
    tracer.setEnabled(true);
    const std::int64_t root = tracer.begin("cell", "c0", 0);
    const std::int64_t child = tracer.begin("Workload::run", "c0", root);
    tracer.end(child);
    tracer.end(root);
    expect(root == 1 && child == 2, "span ids count from 1");
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();
    expect(json.find("\"traceEvents\"") != std::string::npos &&
               json.find("\"name\":\"Workload::run\"") !=
                   std::string::npos &&
               json.find("\"parent\":1") != std::string::npos,
           "Chrome trace carries name, parent and cell");
}

} // namespace

int
main()
{
    wrongPinFailsTheCell();
    metricNames();
    table1MaxErrMatchesHand();
    traceJsonShape();
    std::cout << (failures ? "perfbench self-test FAILED\n"
                           : "perfbench self-test passed\n");
    return failures ? 1 : 0;
}
