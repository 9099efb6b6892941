/**
 * @file
 * Concurrent execution of independent experiments. A ParallelRunner
 * owns a fixed pool of worker threads; each in-flight job builds a
 * fully isolated Gpu + workload pair through runExperiment(), so two
 * simulations never share a counter, cache, collector or RNG.
 * Results are committed on the *caller's* thread in spec order
 * regardless of completion order, which makes a parallel sweep's
 * output — records, sinks, reports — byte-identical to a serial one.
 *
 * An exception inside one job (bad override, workload fatal(), ...)
 * is captured into that job's outcome and does not poison siblings;
 * the remaining cells of the sweep still run to completion.
 */

#ifndef GPULAT_API_PARALLEL_RUNNER_HH
#define GPULAT_API_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "api/experiment.hh"

namespace gpulat {

/** What one sweep cell produced: a record, or a captured error. */
struct JobOutcome
{
    ExperimentRecord record; ///< valid iff !failed
    bool failed = false;     ///< the job threw
    std::string error;       ///< exception text when failed
    double wallMs = 0.0;     ///< the job's wall-clock time
};

/**
 * Parse a jobs-count value: a non-negative integer, where 0 means
 * "use the hardware concurrency". fatal() on anything else
 * (negative, fractional, empty, non-numeric, trailing junk,
 * overflow; see parseUnsigned),
 * naming @p flag — the same syntax serves `--jobs` and
 * `--tick-jobs`, and the error must point at the flag the user
 * actually passed.
 */
std::size_t parseJobs(const std::string &text,
                      const char *flag = "--jobs");

/** Map the user's jobs request to a worker count: 0 becomes the
 *  hardware concurrency (at least 1), anything else passes through. */
std::size_t resolveJobs(std::size_t jobs);

class ParallelRunner
{
  public:
    /**
     * Runs after the simulation on the *worker* thread with the
     * still-live Gpu (same contract as runExperiment's inspect).
     * Must only write state private to its index — e.g. its slot of
     * a pre-sized vector — never a shared stream or accumulator.
     */
    using Inspect =
        std::function<void(std::size_t index, Gpu &gpu,
                           const ExperimentRecord &record)>;

    /**
     * Runs on the caller's thread, strictly in spec order (outcome
     * 0, then 1, ...), as soon as every earlier job has finished.
     * The right place for sinks, streams and exit-code accounting.
     */
    using Commit =
        std::function<void(std::size_t index,
                           const JobOutcome &outcome)>;

    /** @param jobs resolved worker count (>= 1, see resolveJobs). */
    explicit ParallelRunner(std::size_t jobs);

    /**
     * Run every spec and return the outcomes in spec order. With
     * one worker (or fewer than two specs) everything executes
     * inline on the caller's thread — no threads are created, and
     * the per-cell exception capture is the same, so `--jobs 1`
     * and `--jobs N` differ only in wall-clock.
     */
    std::vector<JobOutcome> run(const std::vector<ExperimentSpec> &specs,
                                const Inspect &inspect = {},
                                const Commit &commit = {}) const;

    std::size_t jobs() const { return jobs_; }

  private:
    std::size_t jobs_;
};

} // namespace gpulat

#endif // GPULAT_API_PARALLEL_RUNNER_HH
