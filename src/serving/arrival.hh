/**
 * @file
 * Per-tenant kernel-launch arrival streams for the serving layer:
 * open-loop fixed-rate and Poisson processes (the whole schedule is
 * precomputed at construction from a per-tenant RNG, so arrivals
 * are independent of scheduling decisions) and a closed-loop mode
 * where each completion re-arms the next arrival after a think
 * time. Every stream derives its RNG from the device seed plus the
 * tenant index, so a cell's arrival pattern is a pure function of
 * the `seed` override key — byte-identical across `--jobs` and
 * `--tick-jobs`.
 */

#ifndef GPULAT_SERVING_ARRIVAL_HH
#define GPULAT_SERVING_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace gpulat {

enum class ArrivalKind : std::uint8_t
{
    Fixed,      ///< open loop, constant inter-arrival gap
    Poisson,    ///< open loop, exponential inter-arrival gaps
    ClosedLoop, ///< next arrival armed by onCompletion() + think
};

/** Traffic description of one tenant. */
struct TenantTraffic
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean inter-arrival gap in core cycles (open-loop kinds). */
    double meanGapCycles = 4000.0;
    /** Completion-to-next-arrival think time (closed loop). */
    double thinkCycles = 2000.0;
    /** Total launches this tenant submits. */
    unsigned launches = 12;
};

class ArrivalStream
{
  public:
    /**
     * @param traffic the tenant's traffic shape.
     * @param gpu_seed GpuConfig::seed (the `seed` override key).
     * @param tenant tenant index; decorrelates tenant RNGs.
     */
    ArrivalStream(const TenantTraffic &traffic,
                  std::uint64_t gpu_seed, unsigned tenant);

    /** No further arrivals will ever be produced. */
    bool exhausted() const;

    /**
     * Cycle of the next pending arrival; kNoCycle when exhausted
     * or (closed loop) waiting for a completion. May be in the
     * past if the caller has not collected yet.
     */
    Cycle nextArrivalAt() const;

    /** Consume the pending arrival; returns its scheduled cycle. */
    Cycle pop();

    /** Closed loop: a launch of this tenant completed at @p now. */
    void onCompletion(Cycle now);

  private:
    TenantTraffic traffic_;
    /** Open loop: full precomputed schedule. */
    std::vector<Cycle> schedule_;
    std::size_t nextIdx_ = 0;
    /** Closed loop: the one pending arrival, or kNoCycle. */
    Cycle pending_ = kNoCycle;
    unsigned emitted_ = 0;
};

} // namespace gpulat

#endif // GPULAT_SERVING_ARRIVAL_HH
