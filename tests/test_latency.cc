/**
 * @file
 * Unit + property tests for the latency analysis core: stage
 * attribution, breakdown bucketization and exposure accounting.
 */

#include <gtest/gtest.h>

#include "api/experiment.hh"
#include "common/log.hh"
#include "gpu/gpu.hh"
#include "common/random.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "latency/stages.hh"
#include "latency/summary.hh"

namespace gpulat {
namespace {

LatencyTrace
dramTrace(Cycle issue = 100)
{
    LatencyTrace t;
    t.issue = issue;
    t.l1Access = issue + 15;
    t.icntInject = issue + 25;
    t.ropEnq = issue + 70;
    t.l2Enq = issue + 95;
    t.dramEnq = issue + 130;
    t.dramSched = issue + 180;
    t.dramData = issue + 500;
    t.complete = issue + 560;
    t.hitLevel = HitLevel::Dram;
    return t;
}

TEST(Stages, L1HitAttributesEverythingToSmBase)
{
    LatencyTrace t;
    t.issue = 10;
    t.l1Access = 25;
    t.complete = 55;
    t.hitLevel = HitLevel::L1;
    const auto stages = t.stageCycles();
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::SmBase)], 45u);
    Cycle sum = 0;
    for (auto v : stages)
        sum += v;
    EXPECT_EQ(sum, t.total());
}

TEST(Stages, L2HitSplitsAcrossFiveStages)
{
    LatencyTrace t;
    t.issue = 0;
    t.l1Access = 15;
    t.icntInject = 20;
    t.ropEnq = 60;
    t.l2Enq = 85;
    t.l2Done = 200;
    t.complete = 260;
    t.hitLevel = HitLevel::L2;
    const auto stages = t.stageCycles();
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::SmBase)], 15u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::L1ToIcnt)], 5u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::IcntToRop)], 40u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::RopToL2Q)], 25u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::L2QToDramQ)],
              115u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::FetchToSm)], 60u);
    EXPECT_EQ(stages[static_cast<std::size_t>(Stage::DramQToSched)],
              0u);
}

TEST(Stages, DramTraceSumsToTotal)
{
    const LatencyTrace t = dramTrace();
    Cycle sum = 0;
    for (auto v : t.stageCycles())
        sum += v;
    EXPECT_EQ(sum, t.total());
    EXPECT_EQ(t.total(), 560u);
}

/** Property: random monotone traces always sum to their total. */
TEST(StagesProperty, StageDecompositionAlwaysSumsToTotal)
{
    Rng rng(3);
    for (int trial = 0; trial < 1000; ++trial) {
        LatencyTrace t;
        Cycle c = rng.below(1000);
        t.issue = c;
        c += 1 + rng.below(50);
        t.l1Access = c;
        const int kind = static_cast<int>(rng.below(3));
        if (kind == 0) {
            t.hitLevel = HitLevel::L1;
            c += 1 + rng.below(100);
            t.complete = c;
        } else {
            c += 1 + rng.below(50);
            t.icntInject = c;
            c += 1 + rng.below(50);
            t.ropEnq = c;
            c += 1 + rng.below(50);
            t.l2Enq = c;
            if (kind == 1) {
                t.hitLevel = HitLevel::L2;
                c += 1 + rng.below(200);
                t.l2Done = c;
            } else {
                t.hitLevel = HitLevel::Dram;
                c += 1 + rng.below(100);
                t.dramEnq = c;
                c += 1 + rng.below(300);
                t.dramSched = c;
                c += 1 + rng.below(400);
                t.dramData = c;
            }
            c += 1 + rng.below(100);
            t.complete = c;
        }
        Cycle sum = 0;
        for (auto v : t.stageCycles())
            sum += v;
        EXPECT_EQ(sum, t.total()) << "trial " << trial;
    }
}

TEST(StagesProperty, MshrMergedDramTracesStayOrdered)
{
    // gemm on gf100-sim merges many L2 misses into one DRAM fetch.
    // A merged secondary may reach the L2 queue after its primary
    // was already queued or scheduled at DRAM; its copied DRAM
    // stamps must still not precede its own L2 entry, or the
    // L2Q->DRAMQ stage wraps around.
    ExperimentSpec spec;
    spec.gpu = "gf100-sim";
    spec.workload = "gemm";
    spec.params = {"n=64"};
    std::size_t checked = 0;
    runExperiment(spec, [&](Gpu &gpu, const ExperimentRecord &) {
        for (const LatencyTrace &t : gpu.latencies().traces()) {
            const auto stages = t.stageCycles();
            Cycle sum = 0;
            for (std::size_t s = 0; s < kNumStages; ++s) {
                ASSERT_LE(stages[s], t.total())
                    << toString(static_cast<Stage>(s));
                sum += stages[s];
            }
            ASSERT_EQ(sum, t.total());
            ++checked;
        }
    });
    EXPECT_GT(checked, 0u);
}

TEST(Breakdown, EmptyInputYieldsEmptyBreakdown)
{
    const Breakdown bd = computeBreakdown({}, 48);
    EXPECT_EQ(bd.requests, 0u);
    EXPECT_TRUE(bd.buckets.empty());
}

TEST(Breakdown, SingleTraceLandsInLastBucket)
{
    const Breakdown bd = computeBreakdown({dramTrace()}, 8);
    EXPECT_EQ(bd.requests, 1u);
    std::uint64_t count = 0;
    for (const auto &bucket : bd.buckets)
        count += bucket.count;
    EXPECT_EQ(count, 1u);
}

TEST(Breakdown, BucketsSpanObservedRange)
{
    std::vector<LatencyTrace> traces;
    for (Cycle issue : {0u, 100u, 200u}) {
        LatencyTrace t = dramTrace(issue);
        t.complete = t.issue + 560 + issue; // totals 560, 660, 760
        traces.push_back(t);
    }
    const Breakdown bd = computeBreakdown(traces, 10);
    EXPECT_EQ(bd.minLatency, 560u);
    EXPECT_EQ(bd.maxLatency, 760u);
    EXPECT_EQ(bd.buckets.front().lo, 560u);
    EXPECT_EQ(bd.buckets.back().hi, 760u);
}

TEST(Breakdown, CountsAreConserved)
{
    Rng rng(7);
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 500; ++i) {
        LatencyTrace t = dramTrace();
        t.complete = t.issue + 300 + rng.below(1000);
        // keep monotonicity: dramData must stay below complete
        t.dramData = std::min(t.dramData, t.complete - 1);
        t.dramSched = std::min(t.dramSched, t.dramData);
        traces.push_back(t);
    }
    const Breakdown bd = computeBreakdown(traces, 48);
    std::uint64_t count = 0;
    for (const auto &bucket : bd.buckets)
        count += bucket.count;
    EXPECT_EQ(count, traces.size());
}

TEST(Breakdown, StagePercentagesSumTo100PerNonEmptyBucket)
{
    std::vector<LatencyTrace> traces{dramTrace(0), dramTrace(50)};
    const Breakdown bd = computeBreakdown(traces, 4);
    for (const auto &bucket : bd.buckets) {
        if (bucket.count == 0)
            continue;
        double sum = 0.0;
        for (std::size_t s = 0; s < kNumStages; ++s)
            sum += bucket.stagePct(static_cast<Stage>(s));
        EXPECT_NEAR(sum, 100.0, 1e-9);
    }
}

TEST(Breakdown, RankedStagesOrderedByContribution)
{
    const Breakdown bd = computeBreakdown({dramTrace()}, 4);
    const auto ranked = bd.rankedStages();
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_GE(
            bd.totalByStage[static_cast<std::size_t>(ranked[i - 1])],
            bd.totalByStage[static_cast<std::size_t>(ranked[i])]);
    }
    // For this trace DRAM(SchToA) = 320 dominates.
    EXPECT_EQ(ranked[0], Stage::DramSchedToData);
}

TEST(Exposure, PercentagesPartition)
{
    std::vector<ExposureRecord> records{{100, 30}, {100, 70}};
    const ExposureBreakdown eb = computeExposure(records, 1);
    EXPECT_NEAR(eb.buckets[0].exposedPct(), 50.0, 1e-9);
    EXPECT_NEAR(eb.buckets[0].hiddenPct(), 50.0, 1e-9);
}

TEST(Exposure, OverallExposedWeightsByCycles)
{
    std::vector<ExposureRecord> records{{100, 100}, {300, 0}};
    const ExposureBreakdown eb = computeExposure(records, 4);
    EXPECT_NEAR(eb.overallExposedPct(), 25.0, 1e-9);
}

TEST(Exposure, MostlyExposedFraction)
{
    // Two well-separated buckets: one fully exposed, one hidden.
    std::vector<ExposureRecord> records{{100, 100}, {1000, 0}};
    const ExposureBreakdown eb = computeExposure(records, 2);
    EXPECT_NEAR(eb.fractionOfLoadsMostlyExposed(), 0.5, 1e-9);
}

TEST(Exposure, EmptyInput)
{
    const ExposureBreakdown eb = computeExposure({}, 48);
    EXPECT_EQ(eb.loads, 0u);
    EXPECT_EQ(eb.overallExposedPct(), 0.0);
}

TEST(Summary, SplitsByHitLevel)
{
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 10; ++i) {
        LatencyTrace t;
        t.issue = 0;
        t.l1Access = 15;
        t.complete = 40 + static_cast<Cycle>(i);
        t.hitLevel = HitLevel::L1;
        traces.push_back(t);
    }
    traces.push_back(dramTrace());
    const LatencySummary s = computeSummary(traces);
    EXPECT_EQ(s.at(HitLevel::L1).count, 10u);
    EXPECT_EQ(s.at(HitLevel::L1).min, 40u);
    EXPECT_EQ(s.at(HitLevel::L1).max, 49u);
    EXPECT_NEAR(s.at(HitLevel::L1).mean, 44.5, 1e-9);
    EXPECT_EQ(s.at(HitLevel::Dram).count, 1u);
    EXPECT_EQ(s.at(HitLevel::L2).count, 0u);
}

TEST(Summary, PercentilesAreOrdered)
{
    std::vector<LatencyTrace> traces;
    for (int i = 0; i < 100; ++i) {
        LatencyTrace t = dramTrace();
        t.complete = t.issue + 500 + static_cast<Cycle>(i * 13);
        t.dramData = std::min(t.dramData, t.complete - 1);
        traces.push_back(t);
    }
    const LatencySummary s = computeSummary(traces);
    const LevelSummary &d = s.at(HitLevel::Dram);
    EXPECT_LE(d.min, d.p50);
    EXPECT_LE(d.p50, d.p90);
    EXPECT_LE(d.p90, d.p99);
    EXPECT_LE(d.p99, d.max);
}

} // namespace
} // namespace gpulat
