#include "mem/partition.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "engine/clock_domain.hh"
#include "mem/device_memory.hh"

namespace gpulat {

MemPartition::MemPartition(unsigned id, const PartitionParams &params,
                           StatRegistry *stats, DeviceMemory *dmem)
    : id_(id),
      params_(params),
      stats_(stats),
      dmem_(dmem),
      ropQueue_(params.ropQueueSize, params.ropLatency),
      l2Queue_(params.l2QueueSize, params.l2QueueLatency),
      l2HitPipe_(params.l2QueueSize + params.l2HitLatency,
                 params.l2HitLatency),
      l2MissPipe_(params.l2QueueSize + params.l2MissLatency,
                  params.l2MissLatency),
      l2Mshr_(params.l2MshrEntries, params.l2MshrMaxMerge,
              params.l2MshrBanks, params.l2MshrBankEntries,
              params.l2MshrBankMerges, params.lineBytes),
      dram_("part" + std::to_string(id) + ".dram", params.dram, stats),
      returnQueue_(params.returnQueueSize, params.returnQueueLatency)
{
    const std::string prefix = "part" + std::to_string(id);
    if (params_.l2Enabled) {
        // Write-back: tickL2Queue() absorbs write hits.
        CacheParams l2 = params_.l2Cache;
        l2.lineBytes = params_.lineBytes;
        l2.write = WritePolicy::WriteBack;
        l2_ = std::make_unique<Cache>(prefix + ".l2", l2, stats);
    }
    l2Accesses_ = &stats->counter(prefix + ".l2_accesses");
    mshrBankConflicts_ =
        &stats->counter(prefix + ".l2_mshr_bank_conflicts");
    dramReads_ = &stats->counter(prefix + ".dram_reads");
    dramWrites_ = &stats->counter(prefix + ".dram_writes");
    writebacks_ = &stats->counter(prefix + ".l2_writebacks");
    dramQueueWait_ = &stats->scalar(prefix + ".dram_queue_wait");
}

void
MemPartition::accept(Cycle now, MemRequest req)
{
    // Atomics RMW here, not at SM issue: accept() runs
    // while the coordinator group drains the request network, and
    // the crossbar's per-source FIFOs + per-destination round-robin
    // make the arrival order schedule-invariant — so the functional
    // outcome cannot depend on the tick-jobs value.
    if (req.isAtomic && dmem_) {
        const std::uint64_t old = dmem_->read64(req.atomAddr);
        std::uint64_t next = 0;
        switch (req.atomOp) {
          case AtomOp::Add:
            next = old + req.atomArg;
            break;
          case AtomOp::Max:
            next = static_cast<std::uint64_t>(
                std::max(static_cast<std::int64_t>(old),
                         static_cast<std::int64_t>(req.atomArg)));
            break;
          case AtomOp::Exch:
            next = req.atomArg;
            break;
        }
        dmem_->write64(req.atomAddr, next);
        req.atomResult = old;
    }

    req.trace.ropEnq = now;
    // Dense slice-local address for L2 sets / DRAM rows.
    const Addr line_no = req.lineAddr / params_.lineBytes;
    req.sliceAddr =
        line_no / params_.interleaveDivisor * params_.lineBytes;
    bool ok = ropQueue_.push(now, std::move(req));
    GPULAT_ASSERT(ok, "accept() called on full ROP queue");
}

void
MemPartition::respond(Cycle now, MemRequest req)
{
    bool ok = returnQueue_.push(now, std::move(req));
    GPULAT_ASSERT(ok, "return queue overflow (caller must check)");
}

void
MemPartition::pushDram(Cycle now, MemRequest req)
{
    // Dirty-line writebacks may exceed the configured capacity so the
    // fill path can never deadlock against its own evictions.
    GPULAT_ASSERT(req.isWriteback || dramQueue_.size() <
                  params_.dramQueueSize, "DRAM queue overflow");
    req.trace.dramEnq = now;
    dramQueue_.push_back(std::move(req));
}

void
MemPartition::tickDramSchedule(Cycle now)
{
    auto pick = pickDramRequest(params_.sched, dramQueue_, dram_, now,
                                params_.dramStarvationLimit);
    if (!pick)
        return;
    MemRequest req = std::move(dramQueue_[*pick]);
    dramQueue_.erase(dramQueue_.begin() +
                     static_cast<std::ptrdiff_t>(*pick));
    if (!req.isWrite) {
        req.trace.dramSched = now;
        dramQueueWait_->sample(
            static_cast<double>(now - req.trace.dramEnq));
    }
    const Cycle done = dram_.schedule(req.dramAddr(), req.isWrite, now);
    GPULAT_ASSERT(dramInService_.empty() ||
                  dramInService_.back().first <= done,
                  "DRAM completions must be ordered");
    if (!req.isWrite)
        dramReads_->inc();
    dramInService_.emplace_back(done, std::move(req));
}

void
MemPartition::tickL2MissPipe(Cycle now)
{
    if (!l2MissPipe_.headReady(now))
        return;
    MemRequest &head = l2MissPipe_.front();

    if (head.isWrite) {
        if (dramQueue_.size() >= params_.dramQueueSize)
            return; // stall
        pushDram(now, l2MissPipe_.pop());
        return;
    }

    head.trace.hitLevel = HitLevel::Dram;
    if (l2Mshr_.pending(head.dramAddr())) {
        // Secondary miss: merge; no new DRAM request.
        auto outcome = l2Mshr_.allocate(head.dramAddr(), head);
        if (outcome == MshrOutcome::FullMerges)
            return; // stall until the fill returns
        GPULAT_ASSERT(outcome == MshrOutcome::Merged, "expected merge");
        l2MissPipe_.pop();
        return;
    }

    if (!l2Mshr_.canAllocate(head.dramAddr())) {
        // With one bank this is the old whole-table check; with
        // more, the line's bank may be full while the table still
        // has room — a conflict only the banked shape can produce.
        if (l2Mshr_.inFlight() < l2Mshr_.capacity())
            mshrBankConflicts_->inc();
        return; // structural stall
    }
    if (dramQueue_.size() >= params_.dramQueueSize)
        return; // structural stall

    // Primary miss: track the line (payload unused for the primary;
    // the authoritative request travels through DRAM) and go to DRAM.
    MemRequest req = l2MissPipe_.pop();
    MemRequest marker = req;
    marker.token = kNoToken; // primary marker, identified by id
    auto outcome = l2Mshr_.allocate(req.dramAddr(), std::move(marker));
    GPULAT_ASSERT(outcome == MshrOutcome::NewEntry, "expected primary");
    pushDram(now, std::move(req));
}

void
MemPartition::tickL2HitPipe(Cycle now)
{
    if (!l2HitPipe_.headReady(now) || returnQueue_.full())
        return;
    MemRequest req = l2HitPipe_.pop();
    req.trace.l2Done = now;
    req.trace.hitLevel = HitLevel::L2;
    respond(now, std::move(req));
}

void
MemPartition::tickL2Queue(Cycle now)
{
    if (!l2Queue_.headReady(now))
        return;
    MemRequest &head = l2Queue_.front();
    l2Accesses_->inc();
    // Atomics read-modify-write the line at the L2: the access
    // dirties it like a write but produces a response like a read.
    const auto outcome = l2_->access(
        head.dramAddr(), head.isWrite || head.isAtomic, now);

    if (head.isWrite) {
        if (outcome == CacheOutcome::Hit) {
            // Write-back hit: absorbed by the L2 (dirty bit set).
            l2Queue_.pop();
            return;
        }
        // Write miss, no write-allocate: forward to DRAM.
        if (l2MissPipe_.full())
            return;
        l2MissPipe_.push(now, l2Queue_.pop());
        return;
    }

    if (outcome == CacheOutcome::Hit) {
        if (l2HitPipe_.full())
            return;
        l2HitPipe_.push(now, l2Queue_.pop());
    } else {
        if (l2MissPipe_.full())
            return;
        l2MissPipe_.push(now, l2Queue_.pop());
    }
}

void
MemPartition::tickRopQueue(Cycle now)
{
    if (!ropQueue_.headReady(now))
        return;

    if (params_.l2Enabled) {
        if (l2Queue_.full())
            return;
        MemRequest req = ropQueue_.pop();
        req.trace.l2Enq = now;
        l2Queue_.push(now, std::move(req));
        return;
    }

    // No L2 (Tesla-style): the request goes straight to DRAM; the
    // L2 stages collapse to zero-width in the trace.
    if (dramQueue_.size() >= params_.dramQueueSize)
        return;
    MemRequest req = ropQueue_.pop();
    req.trace.l2Enq = now;
    req.trace.hitLevel = HitLevel::Dram;
    pushDram(now, std::move(req));
}

void
MemPartition::tickMemSide(Cycle now)
{
    // Scheduling-decision cadence, counted in DRAM-domain ticks so
    // it rides the dramClock scaling like every other DRAM timing
    // (identical to the old now-modulo gate at 1:1, where the tick
    // index equals the core cycle).
    const bool sched_due =
        memTicks_ % params_.dramCmdInterval == 0;
    ++memTicks_;

    // 1. DRAM completions -> L2 fill + responses.
    while (!dramInService_.empty() &&
           dramInService_.front().first <= now) {
        MemRequest &head = dramInService_.front().second;
        const Cycle done = dramInService_.front().first;

        if (head.isWrite) {
            dramWrites_->inc();
            dramInService_.pop_front();
            continue;
        }

        // Responses this completion fans out to: primary + merged.
        const bool tracked =
            params_.l2Enabled && l2Mshr_.pending(head.dramAddr());
        std::size_t needed = 1;
        if (tracked) {
            // Entry holds the primary marker + merged secondaries.
            // (Query size without draining: release below.)
            needed = l2Mshr_.peekCount(head.dramAddr());
        }
        if (returnQueue_.capacity() - returnQueue_.size() < needed)
            break; // retry next cycle

        MemRequest req = std::move(head);
        dramInService_.pop_front();
        req.trace.dramData = done;

        if (params_.l2Enabled) {
            if (req.isAtomic)
                l2_->markDirty(req.dramAddr());
            if (auto victim = l2_->fill(req.dramAddr(), now)) {
                writebacks_->inc();
                MemRequest wb;
                wb.lineAddr = *victim;
                wb.sliceAddr = *victim;
                wb.isWrite = true;
                wb.isWriteback = true;
                wb.partition = id_;
                pushDram(now, std::move(wb));
            }
            if (tracked) {
                for (MemRequest &m : l2Mshr_.release(req.dramAddr())) {
                    if (m.id == req.id)
                        continue; // the primary marker
                    // Secondaries share the primary's DRAM phase, but
                    // one that reached the L2 queue after the primary
                    // was queued or scheduled at DRAM cannot have
                    // waited there before its own arrival: clamp
                    // each copied stamp to the one before it, so
                    // every stage stays >= 0 and the stages still
                    // sum to the trace's total.
                    m.trace.dramEnq =
                        std::max(req.trace.dramEnq, m.trace.l2Enq);
                    m.trace.dramSched =
                        std::max(req.trace.dramSched, m.trace.dramEnq);
                    m.trace.dramData = std::max(done, m.trace.dramSched);
                    m.trace.hitLevel = HitLevel::Dram;
                    respond(now, std::move(m));
                }
            }
        }
        respond(now, std::move(req));
    }

    // 2. DRAM scheduling decision.
    if (sched_due)
        tickDramSchedule(now);
}

void
MemPartition::skipMemSide(Cycle from, Cycle to)
{
    GPULAT_ASSERT(from > 0 && to > from, "bad skip window");
    // Every DRAM-side tick in the dead window was a no-op, but it
    // still counts toward the scheduling cadence.
    memTicks_ +=
        ClockDomain::ticksThrough(to - 1, params_.dramClock) -
        ClockDomain::ticksThrough(from - 1, params_.dramClock);
}

void
MemPartition::tickL2Side(Cycle now)
{
    // 3..6. L2 pipes and front queues, downstream-most first so a
    // request moves at most one hop per cycle.
    tickL2MissPipe(now);
    tickL2HitPipe(now);
    if (params_.l2Enabled)
        tickL2Queue(now);
    tickRopQueue(now);
}

void
MemPartition::tick(Cycle now)
{
    tickMemSide(now);
    tickL2Side(now);
}

Cycle
MemPartition::nextMemEventAt(Cycle now) const
{
    Cycle e = kNoCycle;
    if (!dramInService_.empty())
        e = std::min(e, dramInService_.front().first);
    if (!dramQueue_.empty()) {
        // Next scheduling decision: the first upcoming tick whose
        // index is a multiple of the command interval (a pick may
        // still fail on busy banks; the next boundary is probed
        // then). memTicks_ is the index of the next tick.
        const Cycle interval = params_.dramCmdInterval;
        const Cycle next_due =
            (memTicks_ + interval - 1) / interval * interval;
        e = std::min(e, std::max(now, ClockDomain::tickCycle(
                                          next_due,
                                          params_.dramClock)));
    }
    return e;
}

Cycle
MemPartition::nextL2EventAt(Cycle now) const
{
    (void)now;
    Cycle e = std::min(ropQueue_.headReadyAt(),
                       l2Queue_.headReadyAt());
    e = std::min(e, l2HitPipe_.headReadyAt());
    e = std::min(e, l2MissPipe_.headReadyAt());
    return e;
}

bool
MemPartition::drained() const
{
    return ropQueue_.empty() && l2Queue_.empty() &&
           l2HitPipe_.empty() && l2MissPipe_.empty() &&
           l2Mshr_.empty() && dramQueue_.empty() &&
           dramInService_.empty() && returnQueue_.empty();
}

std::size_t
MemPartition::inFlight() const
{
    return ropQueue_.size() + l2Queue_.size() + l2HitPipe_.size() +
           l2MissPipe_.size() + l2Mshr_.inFlight() +
           dramQueue_.size() + dramInService_.size() +
           returnQueue_.size();
}

std::string
MemPartition::occupancySummary() const
{
    std::ostringstream oss;
    oss << "part" << id_ << "{rop=" << ropQueue_.size()
        << " l2q=" << l2Queue_.size()
        << " hit=" << l2HitPipe_.size()
        << " miss=" << l2MissPipe_.size()
        << " mshr=" << l2Mshr_.inFlight()
        << " dramq=" << dramQueue_.size()
        << " dram=" << dramInService_.size()
        << " ret=" << returnQueue_.size() << "}";
    return oss.str();
}

} // namespace gpulat
