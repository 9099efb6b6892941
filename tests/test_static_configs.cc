/**
 * @file
 * Table-I calibration tests: every probe of the `table1` suite's
 * plan (table1Probes()), run through runExperiment, must reproduce
 * the paper's value it carries within a small tolerance, and the
 * structural properties the paper highlights must hold (Kepler L1
 * is local-only, Maxwell has no L1, Tesla has no caches, latencies
 * grew after Kepler).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "api/bench.hh"

namespace gpulat {
namespace {

/** Each probe's measured cycles per access, keyed (gpu, unit). */
const std::map<std::pair<std::string, std::string>, double> &
measured()
{
    static const auto table = [] {
        std::map<std::pair<std::string, std::string>, double> out;
        for (const Table1Probe &probe : table1Probes()) {
            const ExperimentRecord rec = runExperiment(probe.spec);
            EXPECT_TRUE(rec.correct) << probe.gpu << " " << probe.unit;
            out[{probe.gpu, probe.unit}] =
                rec.metric("pchase_cycles_per_access");
        }
        return out;
    }();
    return table;
}

double
at(const std::string &gpu, const std::string &unit)
{
    const auto it = measured().find({gpu, unit});
    if (it == measured().end()) {
        ADD_FAILURE() << "no " << unit << " probe on " << gpu;
        return 0.0;
    }
    return it->second;
}

constexpr double kTolerance = 0.03; // 3 %

TEST(Table1, EveryProbeMatchesThePaper)
{
    for (const Table1Probe &probe : table1Probes()) {
        ASSERT_GT(probe.paperCycles, 0.0) << probe.gpu << " " << probe.unit;
        EXPECT_NEAR(at(probe.gpu, probe.unit), probe.paperCycles,
                    probe.paperCycles * kTolerance)
            << probe.gpu << " " << probe.unit;
    }
}

TEST(Table1, ColumnsAreTheFourGenerations)
{
    std::vector<std::string> columns;
    for (const Table1Probe &probe : table1Probes()) {
        if (columns.empty() || columns.back() != probe.gpu)
            columns.push_back(probe.gpu);
    }
    EXPECT_EQ(columns, (std::vector<std::string>{"gt200", "gf106",
                                                 "gk104", "gm107"}));
}

TEST(Table1, EachGenerationProbesTheLevelsItHas)
{
    std::map<std::string, std::vector<std::string>> units;
    for (const Table1Probe &probe : table1Probes())
        units[probe.gpu].push_back(probe.unit);
    using Units = std::vector<std::string>;
    EXPECT_EQ(units["gt200"], (Units{"DRAM"}));
    EXPECT_EQ(units["gf106"], (Units{"L1 D$", "L2 D$", "DRAM"}));
    EXPECT_EQ(units["gk104"], (Units{"L1 D$", "L2 D$", "DRAM"}));
    EXPECT_EQ(units["gm107"], (Units{"L2 D$", "DRAM"}));
}

TEST(Table1, KeplerL1IsProbedThroughLocalSpace)
{
    for (const Table1Probe &probe : table1Probes()) {
        const auto &ps = probe.spec.params;
        const bool local =
            std::find(ps.begin(), ps.end(), "space=local") != ps.end();
        EXPECT_EQ(local, probe.gpu == "gk104" && probe.unit == "L1 D$")
            << probe.gpu << " " << probe.unit;
    }
}

TEST(Table1, MaxwellSlowerThanKeplerEverywhere)
{
    // The paper: "effectively making Maxwell's global/local memory
    // pipeline slower than Kepler's on every level".
    EXPECT_GT(at("gm107", "L2 D$"), at("gk104", "L2 D$"));
    EXPECT_GT(at("gm107", "DRAM"), at("gk104", "DRAM"));
}

TEST(Table1, FermiDramIsTheLargestLatency)
{
    for (const std::string gpu : {"gt200", "gk104", "gm107"})
        EXPECT_GT(at("gf106", "DRAM"), at(gpu, "DRAM")) << gpu;
}

TEST(Table1, StructuralFlagsMatchThePaper)
{
    // Kepler: L1 must not serve global accesses.
    const GpuConfig gk104 = makeGK104();
    EXPECT_TRUE(gk104.sm.l1Enabled);
    EXPECT_FALSE(gk104.sm.l1CachesGlobal);
    EXPECT_TRUE(gk104.sm.l1CachesLocal);

    // Maxwell: no L1 at all.
    EXPECT_FALSE(makeGM107().sm.l1Enabled);

    // Tesla: neither L1 nor L2.
    const GpuConfig gt200 = makeGT200();
    EXPECT_FALSE(gt200.sm.l1Enabled);
    EXPECT_FALSE(gt200.partition.l2Enabled);

    // Fermi: both, with global caching.
    const GpuConfig gf106 = makeGF106();
    EXPECT_TRUE(gf106.sm.l1Enabled);
    EXPECT_TRUE(gf106.sm.l1CachesGlobal);
}

TEST(Table1, ConfigLookupByName)
{
    EXPECT_EQ(makeConfig("gf106").name, "gf106");
    EXPECT_EQ(makeConfig("gf100-sim").name, "gf100-sim");
    EXPECT_THROW(makeConfig("gp100"), FatalError);
}

} // namespace
} // namespace gpulat
