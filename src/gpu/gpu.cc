#include "gpu/gpu.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/log.hh"
#include "gpu/kernel_analysis.hh"

namespace gpulat {

namespace {

void
validateRatio(const char *what, ClockRatio ratio)
{
    if (ratio.mul == 0 || ratio.div == 0)
        fatal(what, " clock ratio must be positive (got ", ratio.mul,
              ":", ratio.div, ")");
    if (ratio.mul > 64 || ratio.div > 64)
        fatal(what, " clock ratio ", ratio.mul, ":", ratio.div,
              " out of the supported [1/64, 64] range");
}

/**
 * Convert a latency configured in domain cycles to core cycles: a
 * domain at mul/div of the core frequency stretches each of its
 * cycles by div/mul core cycles (identity at 1:1, so calibrated
 * configs are untouched). Rounded up — hardware can't act on a
 * fraction of an edge.
 */
Cycle
toCoreCycles(Cycle domain_cycles, ClockRatio ratio)
{
    // A latency of n domain cycles spans the same core cycles as n
    // ticks of that domain's grid.
    return ClockDomain::tickCycle(domain_cycles, ratio);
}

/**
 * Validate the clock ratios before anything derives values from
 * them — runs on the config as the very first member initializer,
 * ahead of the toCoreCycles() uses in the init list — and reject
 * values the partition model would divide by or wedge on.
 */
GpuConfig
validatedConfig(GpuConfig config)
{
    validateRatio("icnt", config.icntClock);
    validateRatio("l2", config.l2Clock);
    validateRatio("dram", config.dramClock);
    if (config.partition.dramCmdInterval == 0)
        fatal("partition.dramCmdInterval must be positive");
    if (config.partition.dramQueueSize == 0)
        fatal("partition.dramQueueSize must be positive");
    return config;
}

/** Scale every L2/ROP-domain latency of a partition config. */
void
scalePartitionLatencies(PartitionParams &p, ClockRatio l2,
                        ClockRatio dram)
{
    p.ropLatency = toCoreCycles(p.ropLatency, l2);
    p.l2QueueLatency = toCoreCycles(p.l2QueueLatency, l2);
    p.l2HitLatency = toCoreCycles(p.l2HitLatency, l2);
    p.l2MissLatency = toCoreCycles(p.l2MissLatency, l2);
    p.returnQueueLatency = toCoreCycles(p.returnQueueLatency, l2);

    p.dram.timing.tRCD = toCoreCycles(p.dram.timing.tRCD, dram);
    p.dram.timing.tRP = toCoreCycles(p.dram.timing.tRP, dram);
    p.dram.timing.tCAS = toCoreCycles(p.dram.timing.tCAS, dram);
    p.dram.timing.tBurst = toCoreCycles(p.dram.timing.tBurst, dram);
    p.dram.timing.tExtra = toCoreCycles(p.dram.timing.tExtra, dram);

    p.dram.ddr.tRAS = toCoreCycles(p.dram.ddr.tRAS, dram);
    p.dram.ddr.tRRDS = toCoreCycles(p.dram.ddr.tRRDS, dram);
    p.dram.ddr.tRRDL = toCoreCycles(p.dram.ddr.tRRDL, dram);
    p.dram.ddr.tFAW = toCoreCycles(p.dram.ddr.tFAW, dram);
    p.dram.ddr.tWTR = toCoreCycles(p.dram.ddr.tWTR, dram);
    p.dram.ddr.tRTW = toCoreCycles(p.dram.ddr.tRTW, dram);
    p.dram.ddr.tREFI = toCoreCycles(p.dram.ddr.tREFI, dram);
    p.dram.ddr.tRFC = toCoreCycles(p.dram.ddr.tRFC, dram);
}

} // namespace

Gpu::Gpu(GpuConfig config)
    : config_(validatedConfig(std::move(config))),
      dmem_(config_.deviceMemBytes),
      reqNet_("icnt.req", config_.numSms, config_.numPartitions,
              toCoreCycles(config_.icntLatency, config_.icntClock),
              config_.icntInQueue, config_.icntOutQueue, &stats_),
      respNet_("icnt.resp", config_.numPartitions, config_.numSms,
               toCoreCycles(config_.icntLatency, config_.icntClock),
               config_.icntInQueue, config_.icntOutQueue, &stats_),
      reqEject_(reqNet_, partitions_),
      respInject_(partitions_, respNet_),
      respEject_(respNet_, sms_),
      dispatcher_(*this),
      rng_(config_.seed)
{
    PartitionParams part_params = config_.partition;
    part_params.interleaveDivisor = config_.numPartitions;
    part_params.dramClock = config_.dramClock;
    scalePartitionLatencies(part_params, config_.l2Clock,
                            config_.dramClock);
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        partitions_.push_back(std::make_unique<MemPartition>(
            p, part_params, &stats_, &dmem_));
    }

    auto partition_of = [this](Addr line) {
        return config_.partitionOf(line);
    };
    for (unsigned s = 0; s < config_.numSms; ++s) {
        SmParams sm = config_.sm;
        sm.smId = s;
        sms_.push_back(std::make_unique<SmCore>(
            sm, &dmem_, &stats_, &latCollector_, &expCollector_,
            &reqNet_, partition_of));
    }

    // Wire the engine. Registration order is intra-cycle tick order
    // and replays the pre-engine hand-written orchestration exactly
    // at unity ratios: networks move first (this cycle's ejections
    // are last cycle's traversals), then requests sink toward DRAM,
    // responses rise back, SMs consume them, and new blocks land.
    ClockDomain &core = engine_.addDomain("core", ClockRatio{1, 1});
    ClockDomain &icnt = engine_.addDomain("icnt", config_.icntClock);
    ClockDomain &l2 = engine_.addDomain("l2", config_.l2Clock);
    ClockDomain &dram = engine_.addDomain("dram", config_.dramClock);

    // Tick groups (engine.tickJobs > 1 ticks distinct groups
    // concurrently): each partition's two sides form one group —
    // tickMemSide()/tickL2Side() touch only that partition's
    // queues, banks and pre-resolved counters, so partitions
    // commute with each other. Everything else stays on the
    // coordinator (group 0) in registration order: ports, crossbars
    // and the dispatcher move packets *between* groups, and SM
    // cores execute instructions functionally at issue against the
    // shared device memory and append to the shared collectors.
    engine_.add(icnt, reqNet_);
    engine_.add(icnt, respNet_);
    engine_.add(l2, reqEject_);
    for (auto &part : partitions_) {
        const unsigned part_group = engine_.addGroup(
            "part" + std::to_string(partMemSides_.size()));
        partMemSides_.push_back(
            std::make_unique<PartitionMemSide>(*part));
        partL2Sides_.push_back(
            std::make_unique<PartitionL2Side>(*part));
        engine_.add(dram, *partMemSides_.back(), part_group);
        engine_.add(l2, *partL2Sides_.back(), part_group);
    }
    engine_.add(icnt, respInject_);
    engine_.add(core, respEject_);
    for (auto &sm : sms_)
        engine_.add(core, *sm);
    engine_.add(core, dispatcher_);

    // Wake edges: every path a performed tick can deliver input
    // through, so per-domain fast-forward knows whose cached
    // promise a tick may have invalidated. A consumer stalled on
    // back-pressure keeps *itself* awake through its own ready
    // queue heads, so releasing back-pressure needs no edge — in
    // particular the DRAM side never enqueues L2-side front-queue
    // work (completions go to the return queue), so there is no
    // mem-side -> L2-side edge.
    engine_.link(reqNet_, reqEject_);
    engine_.link(respNet_, respEject_);
    engine_.link(respInject_, respNet_);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        engine_.link(reqEject_, *partL2Sides_[p]);
        engine_.link(*partL2Sides_[p], *partMemSides_[p]);
        engine_.link(*partL2Sides_[p], respInject_);
        engine_.link(*partMemSides_[p], respInject_);
    }
    for (auto &sm : sms_) {
        engine_.link(respEject_, *sm);
        engine_.link(dispatcher_, *sm);
        engine_.link(*sm, reqNet_);
        engine_.link(*sm, dispatcher_);
    }

    engine_.setMode(config_.idleFastForward);
    engine_.setTickJobs(config_.engine.tickJobs);
    engine_.bindStats(stats_);
}

Addr
Gpu::alloc(std::uint64_t bytes, std::uint64_t align)
{
    return dmem_.alloc(bytes, align);
}

void
Gpu::copyToDevice(Addr dst, const void *src, std::uint64_t bytes)
{
    dmem_.copyIn(dst, src, bytes);
}

void
Gpu::copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const
{
    dmem_.copyOut(src, dst, bytes);
}

void
Gpu::invalidateCaches()
{
    for (auto &sm : sms_) {
        GPULAT_ASSERT(!sm->busy() && sm->drained(),
                      "experiment reset while SM busy");
        sm->invalidateL1();
    }
    GPULAT_ASSERT(reqNet_.empty() && respNet_.empty(),
                  "experiment reset while packets in the icnt");
    for (auto &part : partitions_) {
        GPULAT_ASSERT(part->drained(),
                      "cache invalidate while requests in flight");
        if (part->l2())
            part->l2()->invalidateAll();
        // Open rows and bus-busy state would hand the next
        // experiment's first accesses stale row hits.
        part->dram().reset();
    }
    latCollector_.clear();
    expCollector_.clear();
    stats_.markEpoch();
    // DRAM open-row/bus state changed behind the engine's back.
    engine_.wakeAll();
}

bool
Gpu::allDrained() const
{
    for (const auto &sm : sms_)
        if (sm->busy() || !sm->drained())
            return false;
    if (!reqNet_.empty() || !respNet_.empty())
        return false;
    for (const auto &part : partitions_)
        if (!part->drained())
            return false;
    return true;
}

std::uint64_t
Gpu::activitySignature() const
{
    // Any packet movement or instruction progress perturbs this;
    // equality across a long window means a genuine stall. The L2
    // access counter stays out: a stalled L2-queue head re-counts
    // its access every cycle, and every real access follows an
    // icnt.req transfer counted below.
    std::uint64_t sig = 0;
    for (const auto &g : grids_)
        sig += g->nextBlock;
    for (const auto &sm : sms_)
        sig += sm->requestsIssued();
    for (unsigned s = 0; s < config_.numSms; ++s) {
        const std::string prefix = "sm" + std::to_string(s);
        sig += stats_.counterValue(prefix + ".issued");
        sig += stats_.counterValue(prefix + ".loads_completed");
    }
    for (unsigned p = 0; p < config_.numPartitions; ++p) {
        const std::string prefix = "part" + std::to_string(p);
        sig += stats_.counterValue(prefix + ".dram_reads");
        sig += stats_.counterValue(prefix + ".dram_writes");
    }
    sig += stats_.counterValue("icnt.req.transferred");
    sig += stats_.counterValue("icnt.resp.transferred");
    return sig;
}

std::uint64_t
Gpu::instructionsIssued() const
{
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < config_.numSms; ++s)
        sum += stats_.counterValue("sm" + std::to_string(s) + ".issued");
    return sum;
}

std::string
Gpu::stallReport(const std::string &what)
{
    // Close every lazy idle-accounting window first: under
    // perDomain fast-forward, sleeping components carry
    // fastForward() windows that are still open when the watchdog
    // fires, so an un-settled report shows stale idle/occupancy
    // cycle totals (an SM asleep since cycle 100 would report ~100
    // idle cycles at a cycle-50000 stall).
    engine_.settle();

    std::ostringstream oss;
    oss << "no forward progress at cycle " << engine_.now() << " ("
        << what << ")\n";
    oss << "  engine: now=" << engine_.now()
        << " steps=" << engine_.steps()
        << " ff_skipped=" << engine_.skippedCycles() << "\n";
    for (const auto &domain : engine_.domains()) {
        oss << "  engine." << domain->name()
            << ": ticks_run=" << domain->componentTicksRun()
            << " ticks_skipped=" << domain->componentTicksSkipped()
            << " local_cycles=" << domain->localCycles() << "\n";
    }
    // Per-tick-group progress: group tick totals are invariant
    // across tickJobs, so a group whose ticks_run froze is stalled
    // in every schedule.
    for (unsigned g = 1; g < engine_.numGroups(); ++g) {
        oss << "  engine.group." << engine_.groupName(g)
            << ": ticks_run=" << engine_.groupTicksRun(g) << "\n";
    }
    if (!verdict_.reason.empty())
        oss << "  sm-parallel verdict: "
            << (verdict_.safe ? "safe (" : "unsafe (")
            << verdict_.reason << ")\n";
    for (const auto &g : grids_) {
        oss << "  grid " << g->id << " ('" << g->ctx.kernel->name
            << "'): dispatched " << g->nextBlock << "/"
            << g->ctx.numBlocks << " blocks on " << g->smIds.size()
            << " SMs\n";
    }
    oss << "  icnt: req=" << reqNet_.inFlight()
        << " resp=" << respNet_.inFlight() << " in flight\n";
    for (unsigned s = 0; s < config_.numSms; ++s) {
        oss << "  " << sms_[s]->occupancySummary() << " idle="
            << stats_.counterValue("sm" + std::to_string(s) +
                                   ".idle_cycles")
            << (sms_[s]->drained() ? "" : " [not drained]") << "\n";
    }
    for (const auto &part : partitions_)
        oss << "  " << part->occupancySummary()
            << (part->drained() ? "" : " [not drained]") << "\n";
    return oss.str();
}

void
Gpu::validateGrid(const Kernel &kernel, unsigned num_blocks,
                  unsigned threads_per_block, std::size_t num_params,
                  const std::vector<unsigned> &sm_ids) const
{
    if (num_blocks == 0 || threads_per_block == 0)
        fatal("launch of '", kernel.name, "' with empty grid/block");
    if (threads_per_block > config_.sm.warpSlots * kWarpSize)
        fatal("block of ", threads_per_block,
              " threads exceeds SM capacity");
    if (num_params > kMaxParams)
        fatal("too many kernel parameters");
    if (kernel.sharedBytes > config_.sm.smemPerSm)
        fatal("kernel shared memory ", kernel.sharedBytes,
              " exceeds SM capacity ", config_.sm.smemPerSm);
    // The rest of SmCore::canAcceptBlock()'s rule: a block that
    // fails it on an empty SM would never become resident.
    if (config_.sm.maxBlocksPerSm == 0)
        fatal("sm.maxBlocksPerSm is 0: no block of '", kernel.name,
              "' can ever become resident");
    const std::uint64_t warps =
        (threads_per_block + kWarpSize - 1) / kWarpSize;
    const std::uint64_t regs =
        warps * kWarpSize * static_cast<std::uint64_t>(kernel.numRegs);
    if (regs > config_.sm.regsPerSm)
        fatal("block of '", kernel.name, "' needs ", regs,
              " registers, more than sm.regsPerSm = ",
              config_.sm.regsPerSm);

    // The declared register count bounds each thread's register
    // file slice; code touching a register beyond it would corrupt
    // neighbouring state.
    int max_reg = -1;
    for (const auto &inst : kernel.code) {
        max_reg = std::max({max_reg, inst.dst, inst.srcA,
                            inst.useImm ? kNoReg : inst.srcB,
                            inst.srcC});
        if (inst.isStore() || inst.isAtomic())
            max_reg = std::max(max_reg, inst.srcB);
    }
    if (max_reg >= kernel.numRegs)
        fatal("kernel '", kernel.name, "' declares ", kernel.numRegs,
              " registers but uses r", max_reg);

    if (sm_ids.empty())
        fatal("grid of '", kernel.name, "' with no SMs");
    for (std::size_t i = 0; i < sm_ids.size(); ++i) {
        const unsigned s = sm_ids[i];
        if (s >= config_.numSms)
            fatal("grid of '", kernel.name, "' names SM ", s, " of ",
                  config_.numSms);
        for (std::size_t j = i + 1; j < sm_ids.size(); ++j)
            if (sm_ids[j] == s)
                fatal("grid of '", kernel.name, "' names SM ", s,
                      " twice");
        for (const auto &g : grids_)
            for (const unsigned t : g->smIds)
                if (t == s)
                    fatal("SM ", s, " already owned by active grid ",
                          g->id, " ('", g->ctx.kernel->name, "')");
        GPULAT_ASSERT(!sms_[s]->busy() && sms_[s]->drained(),
                      "grid begun on a busy SM");
    }
}

Gpu::GridId
Gpu::beginGrid(const Kernel &kernel, unsigned num_blocks,
               unsigned threads_per_block,
               const std::vector<RegValue> &params,
               std::vector<unsigned> sm_ids)
{
    validateGrid(kernel, num_blocks, threads_per_block, params.size(),
                 sm_ids);

    auto g = std::make_unique<Grid>();
    g->id = nextGridId_++;
    g->ctx.kernel = &kernel;
    g->ctx.numBlocks = num_blocks;
    g->ctx.threadsPerBlock = threads_per_block;
    for (std::size_t i = 0; i < params.size(); ++i)
        g->ctx.params[i] = params[i];
    g->ctx.totalThreads =
        static_cast<std::uint64_t>(num_blocks) * threads_per_block;
    g->ctx.localBytesPerThread = config_.localBytesPerThread;
    g->smIds = std::move(sm_ids);

    // Back the local space only if the kernel touches it, and only
    // for a grid running alone: concurrent grids would have to
    // share the single backing store.
    const bool uses_local = std::any_of(
        kernel.code.begin(), kernel.code.end(), [](const auto &inst) {
            return inst.isMemory() && inst.space == MemSpace::Local;
        });
    if (uses_local) {
        if (!grids_.empty())
            fatal("kernel '", kernel.name, "' uses local memory; "
                  "unsupported beside another active grid");
        if (localBase_ == kNoAddr ||
            localAllocThreads_ != g->ctx.totalThreads ||
            localAllocBytes_ != g->ctx.localBytesPerThread) {
            localBase_ = dmem_.alloc(
                g->ctx.totalThreads * g->ctx.localBytesPerThread,
                config_.sm.lineBytes);
            localAllocThreads_ = g->ctx.totalThreads;
            localAllocBytes_ = g->ctx.localBytesPerThread;
        }
        g->ctx.localBase = localBase_;
    }

    // The SM-parallel safety verdict is a diagnostic: SM cores tick
    // in registration order on the coordinator whatever it says,
    // but every ExperimentRecord carries it.
    verdict_ = analyzeSmParallelSafety(kernel, num_blocks,
                                       threads_per_block,
                                       g->ctx.params);

    for (const unsigned s : g->smIds)
        sms_[s]->startLaunch(&g->ctx);
    // Binding contexts and arming the dispatcher happened outside
    // the engine: cached promises cannot have seen it.
    engine_.wakeAll();

    grids_.push_back(std::move(g));
    return grids_.back()->id;
}

const Gpu::Grid &
Gpu::grid(GridId id) const
{
    for (const auto &g : grids_)
        if (g->id == id)
            return *g;
    panic("grid ", id, " is not active");
}

bool
Gpu::gridDone(GridId id) const
{
    const Grid &g = grid(id);
    if (g.nextBlock < g.ctx.numBlocks)
        return false;
    for (const unsigned s : g.smIds)
        if (sms_[s]->busy() || !sms_[s]->drained())
            return false;
    return true;
}

void
Gpu::retireGrid(GridId id)
{
    GPULAT_ASSERT(gridDone(id), "retiring an unfinished grid");
    for (const unsigned s : grid(id).smIds)
        sms_[s]->endLaunch();
    std::erase_if(grids_, [id](const auto &g) { return g->id == id; });
}

LaunchResult
Gpu::run(const std::function<bool()> &finished,
         const std::function<std::uint64_t()> &progress,
         const std::string &what)
{
    LaunchResult result;
    result.startCycle = engine_.now();
    const std::uint64_t instr_before = instructionsIssued();

    // Watchdog: the no-progress window is measured in *performed
    // engine steps* (TickEngine::steps()), never in core cycles —
    // fastForward() can jump millions of legitimate idle cycles in
    // one step(), so a cycle-measured window would flag a long but
    // healthy DRAM wait as a hang. A genuine stall keeps stepping
    // (the stuck component stays "due") with a frozen signature,
    // so it is still caught in every mode, including Off, where
    // steps and cycles coincide. Panics with a per-layer report.
    const std::uint64_t stall_steps = config_.engine.watchdogStallSteps;
    const auto signature = [&] {
        std::uint64_t sig = activitySignature();
        if (progress)
            sig += 0x9e3779b97f4a7c15ull * progress();
        return sig;
    };
    std::uint64_t last_sig = signature();
    std::uint64_t last_progress_step = engine_.steps();
    std::uint64_t iters = 0;

    while (!finished() || !allDrained()) {
        engine_.step();
        engine_.fastForward(); // no-op in IdleFastForward::Off

        if ((++iters & 0x3fffu) == 0) {
            const std::uint64_t sig = signature();
            if (sig != last_sig) {
                last_sig = sig;
                last_progress_step = engine_.steps();
            } else if (stall_steps != 0 &&
                       engine_.steps() - last_progress_step >
                           stall_steps) {
                panic(stallReport(what));
            }
        }
    }

    // Close every component's lazy idle-accounting window before
    // anything reads per-cycle statistics.
    engine_.settle();

    result.endCycle = engine_.now();
    result.cycles = result.endCycle - result.startCycle;
    result.instructions = instructionsIssued() - instr_before;
    return result;
}

void
Gpu::addCoreComponent(Clocked &component)
{
    // The core domain is the first one the constructor adds.
    engine_.add(*engine_.domains().front(), component);
    for (auto &sm : sms_) {
        engine_.link(component, *sm);
        engine_.link(*sm, component);
    }
}

LaunchResult
Gpu::launch(const Kernel &kernel, unsigned num_blocks,
            unsigned threads_per_block,
            const std::vector<RegValue> &params)
{
    std::vector<unsigned> all_sms(config_.numSms);
    std::iota(all_sms.begin(), all_sms.end(), 0u);
    const GridId id = beginGrid(kernel, num_blocks, threads_per_block,
                                params, std::move(all_sms));
    const LaunchResult result =
        run([&] { return gridDone(id); }, nullptr,
            "kernel '" + kernel.name + "'");
    retireGrid(id);
    return result;
}

void
Gpu::Dispatcher::tick(Cycle now)
{
    for (const auto &g : gpu_.grids_) {
        const std::size_t n = g->smIds.size();
        const auto start = static_cast<std::size_t>(now % n);
        for (std::size_t k = 0;
             k < n && g->nextBlock < g->ctx.numBlocks; ++k) {
            SmCore &sm = *gpu_.sms_[g->smIds[(start + k) % n]];
            if (sm.canAcceptBlock())
                sm.dispatchBlock(g->nextBlock++);
        }
    }
}

Cycle
Gpu::Dispatcher::nextEventAt(Cycle now) const
{
    // Blocks remain: dispatch happens the moment an owned SM has
    // room. If none has, room only appears when a resident block
    // retires — an SM-side event, so it is safe to report idle
    // here (the Gpu declares SM -> dispatcher wake edges, so a
    // retirement discards this promise before it could go stale).
    // A new grid wakes every component.
    for (const auto &g : gpu_.grids_) {
        if (g->nextBlock >= g->ctx.numBlocks)
            continue;
        for (const unsigned s : g->smIds)
            if (gpu_.sms_[s]->canAcceptBlock())
                return now;
    }
    return kNoCycle;
}

} // namespace gpulat
