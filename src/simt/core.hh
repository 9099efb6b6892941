/**
 * @file
 * The streaming multiprocessor (SM) model.
 *
 * Functional-directed timing: instructions execute functionally at
 * issue; timing comes from the scoreboard (dest registers stay
 * pending until the modelled pipeline latency or the memory system
 * writes back). The SM contains the warp schedulers, ALU/FP
 * pipelines, shared memory, the LSU with its coalescer, the L1 data
 * cache with MSHRs, and the miss queue feeding the interconnect —
 * i.e. everything "left of the ICNT" in the paper's Figure 1.
 */

#ifndef GPULAT_SIMT_CORE_HH
#define GPULAT_SIMT_CORE_HH

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/queue.hh"
#include "common/stats.hh"
#include "engine/clocked.hh"
#include "icnt/crossbar.hh"
#include "isa/kernel.hh"
#include "latency/collector.hh"
#include "mem/device_memory.hh"
#include "mem/request.hh"
#include "simt/coalescer.hh"
#include "simt/scheduler.hh"
#include "simt/warp.hh"

namespace gpulat {

/** Static configuration of one SM. */
struct SmParams
{
    unsigned smId = 0;
    unsigned warpSlots = 48;
    unsigned numSchedulers = 2;
    SchedPolicy schedPolicy = SchedPolicy::GTO;
    unsigned maxBlocksPerSm = 8;
    /** Architectural registers per SM (64-bit each in this ISA). */
    unsigned regsPerSm = 32768;
    std::uint32_t smemPerSm = 48 * 1024;

    Cycle aluLatency = 10;
    Cycle fpLatency = 12;
    Cycle smemLatency = 24;
    unsigned smemBanks = 32;
    Cycle smemConflictPenalty = 2;

    std::size_t lsuQueueSize = 8;
    /** Issue -> L1 access minimum (address gen / LSU pipe). */
    Cycle smBaseLatency = 10;
    std::uint32_t lineBytes = 128;

    bool l1Enabled = true;
    bool l1CachesGlobal = true;
    bool l1CachesLocal = true;
    /** Capacity, ways and replacement of the L1; its line is
     *  lineBytes and it writes through (SmCore sets both). */
    CacheParams l1Cache;
    Cycle l1HitLatency = 30;
    /** Miss detect -> ready to enter the interconnect. */
    Cycle l1MissLatency = 4;
    unsigned l1MshrEntries = 32;
    unsigned l1MshrMaxMerge = 8;
    std::size_t l1MissQueueSize = 8;
};

/** Grid-wide launch state shared by all SMs (owned by the Gpu). */
struct LaunchContext
{
    const Kernel *kernel = nullptr;
    unsigned numBlocks = 0;
    unsigned threadsPerBlock = 0;
    std::array<RegValue, kMaxParams> params{};
    /** Base of the interleaved local-memory backing store. */
    Addr localBase = 0;
    std::uint64_t totalThreads = 0;
    std::uint64_t localBytesPerThread = 0;
};

class SmCore : public Clocked
{
  public:
    /**
     * @param params static configuration.
     * @param dmem functional device memory.
     * @param stats registry ("smN.*" counters).
     * @param lat_collector completed-request traces (may be null).
     * @param exp_collector per-load exposure records (may be null).
     * @param req_net request network (SM -> partition).
     * @param partition_of line address -> partition index.
     *
     * Request ids are drawn from a per-SM pool (smId in the high
     * bits, a private sequence below).
     */
    SmCore(const SmParams &params, DeviceMemory *dmem,
           StatRegistry *stats, LatencyCollector *lat_collector,
           ExposureCollector *exp_collector,
           Crossbar<MemRequest> *req_net,
           std::function<unsigned(Addr)> partition_of);

    /** Bind the SM to the current launch (invalidates nothing). */
    void startLaunch(const LaunchContext *ctx);

    /** Unbind the launch before its context is freed (idle SM). */
    void endLaunch();

    /** True if a block of the bound kernel fits right now. */
    bool canAcceptBlock() const;

    /** Dispatch grid block @p block_id onto this SM. */
    void dispatchBlock(unsigned block_id);

    /** Advance one cycle. */
    void tick(Cycle now) override;

    /**
     * Earliest cycle tick() might do work again. Valid at any
     * query time: if the last tick issued nothing, issueability can
     * next change at the earliest wheel/queue event — or the moment
     * another component delivers into the SM (a load response
     * completing a warp's dependency, a freshly dispatched block),
     * which raises wokeSinceTick_ so the promise reports "active
     * now" until the next tick observes the delivery.
     */
    Cycle nextEventAt(Cycle now) const override;

    /** Bulk-account idle statistics for a skipped window. */
    void fastForward(Cycle from, Cycle to) override;

    /** Deliver a response ejected from the return network. */
    void acceptResponse(Cycle now, MemRequest req);

    /** True while any warp is resident. */
    bool busy() const { return residentWarps_ > 0; }

    /** True when every internal queue/table is empty. */
    bool drained() const;

    /** Invalidate the L1 (between experiments). */
    void invalidateL1();

    Cache *l1() { return l1_.get(); }
    const SmParams &params() const { return params_; }

    /** Cumulative cycles with resident warps but zero issue. */
    std::uint64_t idleCycles() const { return idleCum_; }

    /** Memory requests this SM has created (local id pool size);
     *  the sum over SMs equals the old shared-counter value, so
     *  progress signatures stay numerically identical. */
    std::uint64_t requestsIssued() const { return reqSeq_; }

    /** Request-id layout: smId above, per-SM sequence below. */
    static constexpr unsigned kReqIdSmShift = 48;

    /** One-line queue-occupancy summary (for stall reports). */
    std::string occupancySummary() const;

  private:
    struct ResidentBlock
    {
        bool valid = false;
        unsigned blockId = 0;
        unsigned numWarps = 0;
        unsigned warpsDone = 0;
        unsigned warpsAtBarrier = 0;
        std::vector<unsigned> warpSlots;
        std::vector<std::uint8_t> sharedMem;
    };

    struct InflightLoad
    {
        bool valid = false;
        unsigned warpSlot = 0;
        int destReg = kNoReg;
        unsigned pendingTxns = 0;
        Cycle issueCycle = 0;
        std::uint64_t idleAtIssue = 0;
    };

    /** Per-lane payload of a forwarded atomic (parallel to txns). */
    struct AtomLane
    {
        Addr addr = kNoAddr;
        std::uint64_t arg = 0;
        unsigned lane = 0;
    };

    struct LsuOp
    {
        bool isLoad = false;
        bool isAtomic = false;
        MemSpace space = MemSpace::Global;
        LoadToken token = kNoToken;
        std::vector<Transaction> txns;
        std::size_t nextTxn = 0;
        Cycle issueCycle = 0;
        AtomOp atomOp = AtomOp::Add;
        std::vector<AtomLane> atomLanes;
    };

    /** Pending scoreboard writeback. */
    struct RegWb
    {
        unsigned warpSlot;
        int reg;
        bool isPred;
    };

    /** L1 hit completion. */
    struct HitDone
    {
        LoadToken token;
        LatencyTrace trace;
    };

    /** @name tick() phases @{ */
    void tickWriteback(Cycle now);
    void tickInject(Cycle now);
    void tickLsu(Cycle now);
    bool tickIssue(Cycle now);
    /** @} */

    bool canIssue(Warp &warp, Cycle now);
    /** Counter the current dead cycle attributes to (may be null). */
    Counter *idleCauseCounter();
    void issueWarp(Warp &warp, Cycle now);
    void execAlu(Warp &warp, const Instruction &inst, LaneMask guard,
                 Cycle now);
    void execSharedMem(Warp &warp, const Instruction &inst,
                       LaneMask guard, Cycle now);
    void execGlobalMem(Warp &warp, const Instruction &inst,
                       LaneMask guard, Cycle now);
    void execBranch(Warp &warp, const Instruction &inst,
                    LaneMask active, LaneMask guard);
    void execExit(Warp &warp, LaneMask active, LaneMask guard);
    void execBarrier(Warp &warp);

    RegValue operandB(const Warp &warp, const Instruction &inst,
                      unsigned lane) const;
    std::uint64_t globalThreadId(const Warp &warp, unsigned lane) const;
    Addr localPhys(Addr offset, std::uint64_t gtid) const;
    void scheduleRegWb(Cycle at, unsigned warp_slot, int reg,
                       bool is_pred);
    LoadToken allocToken(unsigned warp_slot, int dest, unsigned txns,
                         Cycle now);
    void completeLoadTxn(LoadToken token, Cycle now);
    void finishWarp(Warp &warp);
    void releaseBarrierIfReady(ResidentBlock &block);
    bool l1Caches(MemSpace space) const;

    SmParams params_;
    DeviceMemory *dmem_;
    StatRegistry *stats_;
    LatencyCollector *latCollector_;
    ExposureCollector *expCollector_;
    Crossbar<MemRequest> *reqNet_;
    std::function<unsigned(Addr)> partitionOf_;
    /** Next value of this SM's private request-id pool. */
    std::uint64_t reqSeq_ = 0;

    const LaunchContext *ctx_ = nullptr;

    std::vector<Warp> warps_;
    std::vector<ResidentBlock> blocks_;
    std::vector<WarpScheduler> schedulers_;
    unsigned residentWarps_ = 0;
    unsigned residentBlocks_ = 0;
    unsigned regsUsed_ = 0;
    std::uint32_t smemUsed_ = 0;
    std::uint64_t dispatchSeq_ = 0;

    std::unique_ptr<Cache> l1_;
    MshrTable<LoadToken> l1Mshr_;
    TimedQueue<LsuOp> lsuQueue_;
    TimedQueue<MemRequest> missQueue_;

    std::vector<InflightLoad> inflight_;
    std::vector<LoadToken> freeTokens_;
    unsigned inflightCount_ = 0;

    std::multimap<Cycle, RegWb> regWheel_;
    std::multimap<Cycle, HitDone> hitWheel_;

    std::uint64_t idleCum_ = 0;
    /** Whether the most recent tick issued any instruction — the
     *  idle-skip guard in nextEventAt() (true = assume active). */
    bool issuedLastTick_ = true;
    /** An external delivery (response, block dispatch) changed
     *  warp state since the last tick: the next scheduled tick may
     *  issue even though every wheel/queue looks quiet. */
    bool wokeSinceTick_ = false;

    Counter *issued_;
    Counter *memInstrs_;
    Counter *idleStat_;
    Counter *activeStat_;
    Counter *loadsCompleted_;
    Counter *idleMemStat_;
    Counter *idleAluStat_;
    Counter *idleLsuStat_;
    Counter *idleBarrierStat_;
};

} // namespace gpulat

#endif // GPULAT_SIMT_CORE_HH
