/**
 * @file
 * Collectors the simulator feeds during execution; analyzers consume
 * them afterwards to produce the paper's figures.
 *
 * Only SM cores append, and they tick on the engine's coordinator
 * thread in registration order, so the append order is the serial
 * schedule's for every engine.tickJobs value.
 */

#ifndef GPULAT_LATENCY_COLLECTOR_HH
#define GPULAT_LATENCY_COLLECTOR_HH

#include <vector>

#include "common/types.hh"
#include "latency/stages.hh"

namespace gpulat {

/**
 * Completed per-request (cache-line transaction) latency traces —
 * the raw data behind Figure 1.
 */
class LatencyCollector
{
  public:
    void record(const LatencyTrace &trace) { traces_.push_back(trace); }
    const std::vector<LatencyTrace> &traces() const { return traces_; }
    std::size_t count() const { return traces_.size(); }
    void clear() { traces_.clear(); }

    /** Enable/disable recording (microbenchmark warm-up rounds). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

  private:
    std::vector<LatencyTrace> traces_;
    bool enabled_ = true;
};

/** Per-load-instruction exposure record — the raw data of Fig. 2. */
struct ExposureRecord
{
    Cycle total;   ///< load lifetime, issue -> writeback
    Cycle exposed; ///< cycles of that lifetime the SM issued nothing
};

class ExposureCollector
{
  public:
    void
    record(Cycle total, Cycle exposed)
    {
        records_.push_back(ExposureRecord{total, exposed});
    }

    const std::vector<ExposureRecord> &records() const
    {
        return records_;
    }
    std::size_t count() const { return records_.size(); }
    void clear() { records_.clear(); }

  private:
    std::vector<ExposureRecord> records_;
};

} // namespace gpulat

#endif // GPULAT_LATENCY_COLLECTOR_HH
