/**
 * @file
 * Memory partition: the per-slice backend of the global memory
 * pipeline (GPGPU-Sim's "ROP -> L2 -> DRAM" path).
 *
 * Request flow per cycle (downstream-most first so a request moves
 * at most one hop per cycle):
 *
 *   icnt ejект -> [ROP queue] -> [L2 queue] -> L2 tags
 *        hit  -> [L2 hit pipe] ----------------------\
 *        miss -> [L2 miss pipe] -> MSHR/[DRAM queue]  +-> [return
 *   DRAM sched -> banks -> completion -> L2 fill ----/    queue]
 *                                                          -> icnt
 *
 * Every hop stamps the request's LatencyTrace; those stamps are what
 * Figure 1's breakdown is computed from.
 */

#ifndef GPULAT_MEM_PARTITION_HH
#define GPULAT_MEM_PARTITION_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/queue.hh"
#include "common/stats.hh"
#include "engine/clocked.hh"
#include "mem/dram.hh"
#include "mem/dram_sched.hh"
#include "mem/request.hh"

namespace gpulat {

/** Everything a partition needs to know about itself. */
struct PartitionParams
{
    /** Line size (set by the owning Gpu from sm.lineBytes). */
    std::uint32_t lineBytes = 128;

    /** Number of partitions interleaving the address space (used to
     *  derive dense slice-local addresses). */
    unsigned interleaveDivisor = 1;

    std::size_t ropQueueSize = 16;
    Cycle ropLatency = 16;

    bool l2Enabled = true;
    /** Capacity, ways and replacement of the L2 slice; its line is
     *  lineBytes and it writes back (MemPartition sets both). */
    CacheParams l2Cache;
    std::size_t l2QueueSize = 16;
    Cycle l2QueueLatency = 1;
    Cycle l2HitLatency = 100;
    /** Tag-check time before a miss is forwarded to DRAM. */
    Cycle l2MissLatency = 20;
    std::size_t l2MshrEntries = 32;
    std::size_t l2MshrMaxMerge = 8;
    /** Banked MSHR front-end (esesc-style); 1 = the flat table. */
    unsigned l2MshrBanks = 1;
    /** Entries per bank (0: l2MshrEntries / l2MshrBanks). */
    std::size_t l2MshrBankEntries = 0;
    /** Per-line merge cap override (0: l2MshrMaxMerge). */
    std::size_t l2MshrBankMerges = 0;

    std::size_t dramQueueSize = 32;
    DramSchedPolicy sched = DramSchedPolicy::FRFCFS;
    /** FR-FCFS anti-starvation age (cycles; key mem.dram.starveLimit). */
    Cycle dramStarvationLimit = 768;
    DramParams dram;
    /** DRAM-domain ticks between scheduling decisions (== core
     *  cycles at the default 1:1 DRAM clock). */
    Cycle dramCmdInterval = 2;
    /** DRAM clock relative to core (set by the owning Gpu; maps
     *  tick counts back to core cycles for event queries). */
    ClockRatio dramClock{1, 1};

    std::size_t returnQueueSize = 32;
    Cycle returnQueueLatency = 1;
};

/**
 * One memory partition (L2 slice + DRAM channel). The owning Gpu
 * moves requests between the crossbars and the partition.
 */
class DeviceMemory;

class MemPartition
{
  public:
    /**
     * @param dmem functional device memory for forwarded atomic
     *        RMWs (may be null: unit tests and configurations that
     *        never forward atomics).
     */
    MemPartition(unsigned id, const PartitionParams &params,
                 StatRegistry *stats, DeviceMemory *dmem = nullptr);

    /** True if the ROP queue can take a request this cycle. */
    bool canAccept() const { return !ropQueue_.full(); }

    /** Hand over a request ejected from the request network. */
    void accept(Cycle now, MemRequest req);

    /**
     * Advance all internal pipelines by one cycle (both clock
     * sides; kept for single-domain callers such as unit tests).
     */
    void tick(Cycle now);

    /** @name Clock-domain views (engine-driven ticking) @{ */

    /** DRAM-side cycle: completions drain, scheduler decides. */
    void tickMemSide(Cycle now);

    /** Account DRAM-side ticks skipped over the dead [from, to). */
    void skipMemSide(Cycle from, Cycle to);

    /** L2-side cycle: miss/hit pipes, L2 queue, ROP queue. */
    void tickL2Side(Cycle now);

    /** Earliest cycle tickMemSide() might do work (kNoCycle: none). */
    Cycle nextMemEventAt(Cycle now) const;

    /** Earliest cycle tickL2Side() might do work (kNoCycle: none). */
    Cycle nextL2EventAt(Cycle now) const;

    /** Earliest cycle a response becomes ready (kNoCycle: none). */
    Cycle nextResponseAt() const { return returnQueue_.headReadyAt(); }

    /** @} */

    /** True if a read response is ready to enter the return network. */
    bool responseReady(Cycle now) const
    {
        return returnQueue_.headReady(now);
    }

    /** SM the ready response routes back to. */
    unsigned peekResponseSm() const { return returnQueue_.front().smId; }

    /** Pop the ready response. */
    MemRequest popResponse() { return returnQueue_.pop(); }

    /** True when no request is anywhere inside the partition. */
    bool drained() const;

    /** Requests anywhere inside the partition (for stall reports). */
    std::size_t inFlight() const;

    /** One-line queue-occupancy summary (for stall reports). */
    std::string occupancySummary() const;

    Cache *l2() { return l2_.get(); }
    DramChannel &dram() { return dram_; }
    const PartitionParams &params() const { return params_; }

  private:
    void tickDramSchedule(Cycle now);
    void tickL2MissPipe(Cycle now);
    void tickL2HitPipe(Cycle now);
    void tickL2Queue(Cycle now);
    void tickRopQueue(Cycle now);

    void respond(Cycle now, MemRequest req);
    void pushDram(Cycle now, MemRequest req);

    unsigned id_;
    PartitionParams params_;
    StatRegistry *stats_;
    DeviceMemory *dmem_ = nullptr;

    TimedQueue<MemRequest> ropQueue_;
    TimedQueue<MemRequest> l2Queue_;
    TimedQueue<MemRequest> l2HitPipe_;
    TimedQueue<MemRequest> l2MissPipe_;
    std::unique_ptr<Cache> l2_;
    MshrTable<MemRequest> l2Mshr_;

    /** DRAM-side ticks performed (scheduling-cadence counter). */
    Cycle memTicks_ = 0;
    /** Pending DRAM requests, arrival order (scheduler scans). */
    std::deque<MemRequest> dramQueue_;
    /** In-service DRAM requests; completion times non-decreasing. */
    std::deque<std::pair<Cycle, MemRequest>> dramInService_;
    DramChannel dram_;

    TimedQueue<MemRequest> returnQueue_;

    Counter *l2Accesses_;
    /** Primary miss stalled on its MSHR bank while the table as a
     *  whole still had room (banked front-end only). */
    Counter *mshrBankConflicts_;
    Counter *dramReads_;
    Counter *dramWrites_;
    Counter *writebacks_;
    ScalarStat *dramQueueWait_;
};

} // namespace gpulat

#endif // GPULAT_MEM_PARTITION_HH
