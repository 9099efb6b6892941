/**
 * @file
 * Timed-port adapters: the small Clocked components that move
 * packets between the big models (crossbars, partitions, SMs).
 *
 * Each adapter is registered in the *consumer's* clock domain — a
 * packet crosses into a domain when that domain clocks it in, which
 * is how hardware synchronizers behave. Because every queue
 * timestamp lives on the global core-cycle axis, the latency a
 * packet accumulates while waiting for a slow consumer clock lands
 * in its LatencyTrace in core cycles automatically — no unit
 * conversion at the boundary.
 *
 * The partition's two clock sides (ROP/L2 vs DRAM) get their own
 * adapter types so one MemPartition can straddle two domains.
 *
 * Every adapter reports an *accurate per-side* nextEventAt()
 * promise (the earliest absolute core cycle its own tick could
 * move anything), never a whole-component busy/idle bit: the
 * per-domain fast-forward caches these promises and lets each side
 * sleep independently, so the DRAM side of a partition can probe a
 * bank wait while its L2 side — and every SM — sleeps. The promise
 * only needs to be valid right after the adapter's own tick; the
 * owning Gpu declares the delivery paths as TickEngine wake edges.
 */

#ifndef GPULAT_GPU_PORTS_HH
#define GPULAT_GPU_PORTS_HH

#include <memory>
#include <vector>

#include "engine/clocked.hh"
#include "icnt/crossbar.hh"
#include "mem/partition.hh"
#include "mem/request.hh"
#include "simt/core.hh"

namespace gpulat {

/** Ejects request-network packets into partition ROP queues. */
class NetToPartitionPort : public Clocked
{
  public:
    NetToPartitionPort(
        Crossbar<MemRequest> &net,
        std::vector<std::unique_ptr<MemPartition>> &partitions)
        : net_(net), partitions_(partitions)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned p = 0; p < net_.numDst(); ++p) {
            if (net_.deliverable(p, now) &&
                partitions_[p]->canAccept()) {
                partitions_[p]->accept(now, net_.eject(p));
            }
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        return net_.nextDeliveryAt();
    }

  private:
    Crossbar<MemRequest> &net_;
    std::vector<std::unique_ptr<MemPartition>> &partitions_;
};

/** Injects ready partition responses into the response network. */
class PartitionToNetPort : public Clocked
{
  public:
    PartitionToNetPort(
        std::vector<std::unique_ptr<MemPartition>> &partitions,
        Crossbar<MemRequest> &net)
        : partitions_(partitions), net_(net)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned p = 0; p < partitions_.size(); ++p) {
            if (!partitions_[p]->responseReady(now))
                continue;
            const unsigned dst = partitions_[p]->peekResponseSm();
            if (!net_.canInject(p))
                continue;
            MemRequest resp = partitions_[p]->popResponse();
            const bool ok = net_.inject(now, p, dst, std::move(resp));
            GPULAT_ASSERT(ok, "response inject after canInject");
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        Cycle e = kNoCycle;
        for (const auto &part : partitions_)
            e = std::min(e, part->nextResponseAt());
        return e;
    }

  private:
    std::vector<std::unique_ptr<MemPartition>> &partitions_;
    Crossbar<MemRequest> &net_;
};

/** Ejects response-network packets into their SM's writeback path. */
class NetToSmPort : public Clocked
{
  public:
    NetToSmPort(Crossbar<MemRequest> &net,
                std::vector<std::unique_ptr<SmCore>> &sms)
        : net_(net), sms_(sms)
    {
    }

    void
    tick(Cycle now) override
    {
        for (unsigned s = 0; s < net_.numDst(); ++s) {
            if (net_.deliverable(s, now))
                sms_[s]->acceptResponse(now, net_.eject(s));
        }
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        (void)now;
        return net_.nextDeliveryAt();
    }

  private:
    Crossbar<MemRequest> &net_;
    std::vector<std::unique_ptr<SmCore>> &sms_;
};

/** DRAM-side view of a partition (completions + scheduling). */
class PartitionMemSide : public Clocked
{
  public:
    explicit PartitionMemSide(MemPartition &part) : part_(part) {}
    void tick(Cycle now) override { part_.tickMemSide(now); }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return part_.nextMemEventAt(now);
    }
    void
    fastForward(Cycle from, Cycle to) override
    {
        part_.skipMemSide(from, to);
    }

  private:
    MemPartition &part_;
};

/** ROP/L2-side view of a partition (front queues + pipes). */
class PartitionL2Side : public Clocked
{
  public:
    explicit PartitionL2Side(MemPartition &part) : part_(part) {}
    void tick(Cycle now) override { part_.tickL2Side(now); }
    Cycle
    nextEventAt(Cycle now) const override
    {
        return part_.nextL2EventAt(now);
    }

  private:
    MemPartition &part_;
};

} // namespace gpulat

#endif // GPULAT_GPU_PORTS_HH
