/**
 * @file
 * Unit tests for the memory partition: L2 hit/miss paths, MSHR
 * merging, writes, no-L2 (Tesla) bypass, and trace stamping.
 */

#include <gtest/gtest.h>

#include "mem/partition.hh"

namespace gpulat {
namespace {

PartitionParams
testParams()
{
    PartitionParams p;
    p.ropQueueSize = 8;
    p.ropLatency = 4;
    p.l2Enabled = true;
    p.l2Cache.capacityBytes = 4 * 1024;
    p.l2Cache.ways = 4;
    p.l2QueueSize = 8;
    p.l2QueueLatency = 1;
    p.l2HitLatency = 10;
    p.l2MissLatency = 3;
    p.dramQueueSize = 16;
    p.dram.banks = 4;
    p.dram.rowBytes = 1024;
    p.dram.timing = DramTiming{5, 5, 5, 2, 0};
    p.dramCmdInterval = 1;
    p.returnQueueSize = 16;
    p.returnQueueLatency = 1;
    return p;
}

MemRequest
readReq(Addr line, std::uint64_t id = 1)
{
    MemRequest r;
    r.id = id;
    r.lineAddr = line;
    r.smId = 3;
    r.trace.issue = 0;
    r.trace.l1Access = 0;
    r.trace.icntInject = 0;
    return r;
}

/** Drive the partition until a response pops (or cycles run out). */
std::optional<MemRequest>
runUntilResponse(MemPartition &part, Cycle &now, Cycle limit = 1000)
{
    for (; now < limit; ++now) {
        part.tick(now);
        if (part.responseReady(now))
            return part.popResponse();
    }
    return std::nullopt;
}

TEST(Partition, ReadMissGoesToDramAndReturns)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    part.accept(now, readReq(0));
    const auto resp = runUntilResponse(part, now);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->trace.hitLevel, HitLevel::Dram);
    EXPECT_EQ(resp->smId, 3u);
    EXPECT_NE(resp->trace.dramSched, kNoCycle);
    EXPECT_NE(resp->trace.dramData, kNoCycle);
    EXPECT_TRUE(part.drained());
}

TEST(Partition, SecondReadHitsL2AfterFill)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    part.accept(now, readReq(0, 1));
    ASSERT_TRUE(runUntilResponse(part, now).has_value());

    ++now;
    part.accept(now, readReq(0, 2));
    const auto resp = runUntilResponse(part, now, now + 1000);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->trace.hitLevel, HitLevel::L2);
    EXPECT_NE(resp->trace.l2Done, kNoCycle);
    EXPECT_EQ(resp->trace.dramSched, kNoCycle);
}

TEST(Partition, L2HitIsFasterThanMiss)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    const Cycle start_miss = now;
    part.accept(now, readReq(0, 1));
    runUntilResponse(part, now);
    const Cycle miss_latency = now - start_miss;

    ++now;
    const Cycle start_hit = now;
    part.accept(now, readReq(0, 2));
    runUntilResponse(part, now);
    EXPECT_LT(now - start_hit, miss_latency);
}

TEST(Partition, ConcurrentMissesToSameLineMerge)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    part.accept(now, readReq(0, 1));
    part.accept(now, readReq(0, 2));

    std::vector<MemRequest> responses;
    for (; now < 1000 && responses.size() < 2; ++now) {
        part.tick(now);
        while (part.responseReady(now))
            responses.push_back(part.popResponse());
    }
    ASSERT_EQ(responses.size(), 2u);
    // Only one DRAM read happened.
    EXPECT_EQ(stats.counterValue("part0.dram_reads"), 1u);
    // Merged response shares the primary's DRAM timestamps.
    EXPECT_EQ(responses[0].trace.dramData,
              responses[1].trace.dramData);
}

TEST(Partition, WritesProduceNoResponse)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    MemRequest w = readReq(0);
    w.isWrite = true;
    part.accept(now, std::move(w));
    const auto resp = runUntilResponse(part, now, 500);
    EXPECT_FALSE(resp.has_value());
    EXPECT_TRUE(part.drained());
    EXPECT_EQ(stats.counterValue("part0.dram_writes"), 1u);
}

TEST(Partition, WriteHitIsAbsorbedByL2)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    part.accept(now, readReq(0, 1)); // brings the line in
    runUntilResponse(part, now);

    ++now;
    MemRequest w = readReq(0, 2);
    w.isWrite = true;
    part.accept(now, std::move(w));
    for (Cycle end = now + 200; now < end; ++now)
        part.tick(now);
    EXPECT_TRUE(part.drained());
    // Still only the one original DRAM write... none, and 1 read.
    EXPECT_EQ(stats.counterValue("part0.dram_writes"), 0u);
}

TEST(Partition, DirtyEvictionGeneratesWriteback)
{
    StatRegistry stats;
    PartitionParams p = testParams();
    p.l2Cache.ways = 1;
    p.l2Cache.capacityBytes = 512; // 4 lines, direct mapped
    MemPartition part(0, p, &stats);
    Cycle now = 0;

    part.accept(now, readReq(0, 1));
    runUntilResponse(part, now);
    ++now;
    MemRequest w = readReq(0, 2);
    w.isWrite = true;
    part.accept(now, std::move(w)); // dirties line 0
    for (Cycle end = now + 100; now < end; ++now)
        part.tick(now);

    // Read the conflicting line (same set): evicts dirty line 0.
    part.accept(now, readReq(512, 3));
    runUntilResponse(part, now);
    for (Cycle end = now + 500; now < end; ++now)
        part.tick(now);
    EXPECT_EQ(stats.counterValue("part0.l2_writebacks"), 1u);
    EXPECT_EQ(stats.counterValue("part0.dram_writes"), 1u);
}

TEST(Partition, NoL2ConfigBypassesToDram)
{
    StatRegistry stats;
    PartitionParams p = testParams();
    p.l2Enabled = false;
    MemPartition part(0, p, &stats);
    Cycle now = 0;
    part.accept(now, readReq(0));
    const auto resp = runUntilResponse(part, now);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->trace.hitLevel, HitLevel::Dram);
    // The L2 stage collapses: l2Enq == dramEnq.
    EXPECT_EQ(resp->trace.l2Enq, resp->trace.dramEnq);
}

TEST(Partition, TraceTimestampsAreMonotonic)
{
    StatRegistry stats;
    MemPartition part(0, testParams(), &stats);
    Cycle now = 0;
    part.accept(now, readReq(0));
    const auto resp = runUntilResponse(part, now);
    ASSERT_TRUE(resp.has_value());
    const LatencyTrace &t = resp->trace;
    EXPECT_LE(t.ropEnq, t.l2Enq);
    EXPECT_LE(t.l2Enq, t.dramEnq);
    EXPECT_LE(t.dramEnq, t.dramSched);
    EXPECT_LE(t.dramSched, t.dramData);
}

TEST(Partition, BackpressuresWhenRopFull)
{
    StatRegistry stats;
    PartitionParams p = testParams();
    p.ropQueueSize = 2;
    MemPartition part(0, p, &stats);
    EXPECT_TRUE(part.canAccept());
    part.accept(0, readReq(0, 1));
    part.accept(0, readReq(128, 2));
    EXPECT_FALSE(part.canAccept());
}

} // namespace
} // namespace gpulat
