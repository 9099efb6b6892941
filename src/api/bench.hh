/**
 * @file
 * `gpulat bench <suite>`: every experiment matrix the repo ships
 * (Table I, Figures 1/2, the ablations, the determinism checks) as
 * plain data — a title, ExperimentSpecs expanded by expandSweep(),
 * table columns, named gates over the records and the execution
 * axes the records must not depend on — run by one harness on the
 * ParallelRunner through the StatSinks. The JSON output is one
 * `gpulat.bench.v1` document: the `records` of `gpulat.run.v1`, a
 * separate `timing` section (so `records` stays byte-diffable), the
 * gate results and `gates_ok`.
 */

#ifndef GPULAT_API_BENCH_HH
#define GPULAT_API_BENCH_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hh"

namespace gpulat {

using Records = std::vector<ExperimentRecord>;

/** A gate's verdict and a one-line explanation. */
struct GateResult
{
    bool ok = false;
    std::string detail;
};

/** A named check: a pure function of a suite's records. */
struct BenchGate
{
    std::string name;
    std::function<GateResult(const Records &)> check;
};

/**
 * Execution knobs a sweep's records must not depend on. The harness
 * re-runs the sweep at every combination of its axes' values (jobs
 * 1|4, engine.tickJobs 1|8, idleFastForward off|perDomain) and
 * compares each run with the one at the axis's first value: JSON and
 * CSV byte for byte, or, for idleFastForward, simulated cycles only
 * (the mode is itself a record override).
 */
enum class Axis { Jobs, TickJobs, IdleFastForward };

/** One expandSweep() matrix of a suite. */
struct BenchSweep
{
    ExperimentSpec spec;
    std::vector<Axis> invariantUnder = {};
};

/** One `gpulat bench <name>` experiment matrix. */
struct BenchSuite
{
    std::string name;
    std::string title;
    std::vector<BenchSweep> sweeps;
    /** The cells of `--quick` (empty: the full sweeps). */
    std::vector<BenchSweep> quick = {};
    /** Metric columns appended to the text table. */
    std::vector<std::string> columns = {};
    /** The expected shape, printed under the table. */
    std::string note = {};
    /** Checked on full runs; `--quick` checks correctness and
     *  invariance only. */
    std::vector<BenchGate> gates = {};
    /** Per-cell report (summary|fig1|fig2|all), or empty. */
    std::string report = {};
    /** Optional view over the records, printed under the table. */
    std::function<void(std::ostream &, const Records &)> view = {};
};

/** Every suite, in `gpulat bench --list` order. */
const std::vector<BenchSuite> &benchSuites();

/** The single-valued cells of @p suite, in record order. */
std::vector<ExperimentSpec> suiteCells(const BenchSuite &suite,
                                       bool quick);

using GateResults = std::vector<std::pair<std::string, GateResult>>;

/**
 * The record gates of @p suite over @p records: `all_correct` (every
 * record verified), then, unless @p quick, the suite's own gates.
 */
GateResults evaluateGates(const BenchSuite &suite,
                          const Records &records, bool quick);

/**
 * The invariance comparator: ok iff @p a and @p b render to the
 * same JSON and CSV, or, with @p cycles_only, report the same
 * simulated cycles cell by cell.
 */
GateResult compareRecords(const Records &a, const Records &b,
                          bool cycles_only);

struct BenchOptions
{
    bool quick = false;
    std::size_t jobs = 0; ///< 0 = hardware concurrency
    /** Appended to every cell as engine.tickJobs when set. */
    std::optional<std::size_t> tickJobs;
    std::vector<std::string> jsonOuts; ///< "-" = the out stream
    std::vector<std::string> csvOuts;
};

/**
 * Run @p suite: its cells, then its gates and invariance re-runs.
 * Returns 0, 1 when a record is incorrect or a gate failed, or 2
 * when a cell threw.
 */
int runBench(const BenchSuite &suite, const BenchOptions &opts,
             std::ostream &out, std::ostream &err);

/**
 * The per-run report of `--report KIND` / `--stats`, headed by the
 * cell's identity: the latency summary, the Figure 1 stage
 * breakdown and/or the Figure 2 exposure chart from the live Gpu.
 */
std::string renderReport(Gpu &gpu, const ExperimentRecord &rec,
                         const std::string &kind, std::size_t buckets,
                         bool stats);

} // namespace gpulat

#endif // GPULAT_API_BENCH_HH
