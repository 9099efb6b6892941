/**
 * @file
 * Intra-simulation parallel-ticking bench: three ladders over
 * `engine.tickJobs` — memory-bound (partition groups dominate),
 * compute-bound (SM cores dominate) and a loop kernel (gemm). Worker
 * threads tick only the partition groups; SM cores always tick on
 * the coordinator. Each ladder
 * verifies that cycles, traces and counters are byte-identical
 * across worker counts (rendering records through the JSON sink),
 * prints the wall-clock and serial-vs-parallel speedup per point,
 * and writes the `BENCH_intrasim.json` perf artifact
 * (`gpulat.bench_intrasim.v3`: per-point safety verdicts ride
 * along as a diagnostic) CI uploads so intra-sim scaling is visible
 * PR-over-PR.
 *
 * Ladder shapes:
 *  - memory-bound: few SMs, 8 partitions, deep FR-FCFS DRAM queues,
 *    streaming footprint far beyond the L2 — per-cycle partition
 *    work (queue scans, bank timing, L2 lookups) far outweighs the
 *    SM slice.
 *  - compute-bound: 8 SMs at full warp occupancy grinding long
 *    dependent FFMA chains, 2 partitions — the coordinator-ticked
 *    SM cores carry nearly all the work, so this ladder measures
 *    what worker dispatch costs when it has little to overlap.
 *  - loop kernel: gemm's inner-product loop, 8 SMs / 2 partitions.
 *
 * On a single-core host the parallel points report their honest
 * (≈1x or below) ratios — the speedup columns are measurements,
 * the determinism checks are the gate.
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/parallel_runner.hh"
#include "common/log.hh"
#include "engine/tick_engine.hh"

using namespace gpulat;

namespace {

/** One measured execution point: a tick-jobs value and its cost. */
struct Point
{
    std::size_t tickJobsRequested = 1;
    std::size_t tickJobsResolved = 1;
    double wallMs = 0.0;
    Cycle cycles = 0;
    bool correct = false;
    bool smParallel = false;  ///< launch safety verdict
    std::string verdictReason;
    ExperimentRecord rec;
    std::string json; ///< full record render (determinism check)
    std::vector<std::pair<std::string, std::uint64_t>> groupTicks;
};

/** One tick-jobs ladder over a fixed workload shape. */
struct Ladder
{
    std::string key;         ///< artifact object key
    std::string title;       ///< table heading
    std::string description; ///< artifact workload string
    std::vector<Point> points;
    bool identical = true;
};

/**
 * Memory-bound multi-partition cell: 2 SMs full of warps streaming
 * a 16 MiB footprint through 8 partitions with 64-deep FR-FCFS
 * DRAM queues — per-cycle partition work far outweighs the SM
 * slice.
 */
ExperimentSpec
memoryBoundSpec(std::size_t tick_jobs)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "vecadd";
    spec.params = {"n=" + std::to_string(1 << 18)};
    spec.overrides = {
        "numSms=2",
        "numPartitions=8",
        "sm.warpSlots=48",
        "partition.dramQueueSize=64",
        "deviceMemBytes=" + std::to_string(64 * 1024 * 1024),
        "engine.tickJobs=" + std::to_string(tick_jobs),
    };
    return spec;
}

/**
 * Compute-bound many-SM cell: 8 SMs at 48 warps each grinding
 * dependent 192-deep FFMA chains, only 2 partitions — nearly all
 * per-cycle work lives in the SM cores.
 */
ExperimentSpec
computeBoundSpec(std::size_t tick_jobs)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "compute_stream";
    spec.params = {"n=" + std::to_string(1 << 15), "fmaDepth=192"};
    spec.overrides = {
        "numSms=8",
        "numPartitions=2",
        "sm.warpSlots=48",
        "engine.tickJobs=" + std::to_string(tick_jobs),
    };
    return spec;
}

/**
 * Loop-kernel cell: gemm's tiled inner loop (the loop-aware
 * footprint analysis proves its stores cross-block disjoint; the
 * per-point verdicts in the artifact keep that visible).
 */
ExperimentSpec
loopKernelSpec(std::size_t tick_jobs)
{
    ExperimentSpec spec;
    spec.gpu = "gf106";
    spec.workload = "gemm";
    spec.params = {"n=128"};
    spec.overrides = {
        "numSms=8",
        "numPartitions=2",
        "sm.warpSlots=48",
        "engine.tickJobs=" + std::to_string(tick_jobs),
    };
    return spec;
}

Point
runPoint(const ExperimentSpec &spec, std::size_t tick_jobs)
{
    Point point;
    point.tickJobsRequested = tick_jobs;

    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentRecord rec = runExperiment(
        spec, [&](Gpu &gpu, const ExperimentRecord &) {
            const TickEngine &engine = gpu.engine();
            for (unsigned g = 0; g < engine.numGroups(); ++g) {
                point.groupTicks.emplace_back(
                    engine.groupName(g), engine.groupTicksRun(g));
            }
        });
    using ms = std::chrono::duration<double, std::milli>;
    point.wallMs =
        ms(std::chrono::steady_clock::now() - t0).count();

    point.tickJobsResolved = rec.tickJobs;
    point.cycles = rec.cycles;
    point.correct = rec.correct;
    point.smParallel = rec.metric("analysis.sm_parallel") != 0.0;
    point.verdictReason = rec.analysisReason;

    std::ostringstream os;
    JsonSink sink(os);
    sink.write(rec);
    sink.finish();
    point.json = os.str();
    point.rec = rec;
    return point;
}

/** serial wall / fastest parallel wall (0 when unmeasurable). */
double
bestSpeedup(const std::vector<Point> &points)
{
    const double serial_ms = points.front().wallMs;
    double best_ms = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i)
        if (best_ms == 0.0 || points[i].wallMs < best_ms)
            best_ms = points[i].wallMs;
    return best_ms > 0.0 ? serial_ms / best_ms : 0.0;
}

Ladder
runLadder(std::string key, std::string title, std::string desc,
          ExperimentSpec (*spec)(std::size_t),
          const std::vector<std::size_t> &jobs_ladder)
{
    Ladder ladder;
    ladder.key = std::move(key);
    ladder.title = std::move(title);
    ladder.description = std::move(desc);

    std::cout << "\n" << ladder.title << "\n";
    std::cout << std::setw(10) << "tickJobs" << std::setw(12)
              << "wall ms" << std::setw(12) << "cycles"
              << std::setw(10) << "speedup" << "\n";
    for (const std::size_t tick_jobs : jobs_ladder) {
        ladder.points.push_back(runPoint(spec(tick_jobs), tick_jobs));
        const Point &p = ladder.points.back();
        std::cout << std::setw(10) << tick_jobs << std::setw(12)
                  << std::fixed << std::setprecision(1) << p.wallMs
                  << std::setw(12) << p.cycles << std::setw(9)
                  << std::setprecision(2)
                  << (p.wallMs > 0.0
                          ? ladder.points.front().wallMs / p.wallMs
                          : 0.0)
                  << "x\n";
        if (!p.correct)
            std::cout << "FUNCTIONAL MISMATCH at tickJobs="
                      << tick_jobs << "\n";
        ladder.identical &=
            p.json == ladder.points.front().json;
    }
    std::cout << (ladder.identical
                      ? "records byte-identical across tickJobs: OK\n"
                      : "records DIFFER across tickJobs: BUG\n");
    const Point &head = ladder.points.front();
    std::cout << "verdict: "
              << (head.smParallel ? "sm-parallel" : "serialized")
              << " — " << head.verdictReason << "\n";
    return ladder;
}

void
writeArtifact(const std::string &path,
              const std::vector<Ladder> &ladders)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '", path, "'");
    bool all_identical = true;
    for (const Ladder &ladder : ladders)
        all_identical &= ladder.identical;
    os << "{\n  \"schema\": \"gpulat.bench_intrasim.v3\",\n"
       << "  \"bench\": \"intra_sim_parallel\",\n"
       << "  \"hardware_concurrency\": "
       << TickEngine::resolveTickJobs(0)
       << ",\n  \"records_byte_identical\": "
       << (all_identical ? "true" : "false")
       << ",\n  \"ladders\": {\n";
    for (std::size_t l = 0; l < ladders.size(); ++l) {
        const Ladder &ladder = ladders[l];
        os << "    " << jsonQuote(ladder.key) << ": {\n"
           << "      \"workload\": " << jsonQuote(ladder.description)
           << ",\n      \"records_byte_identical\": "
           << (ladder.identical ? "true" : "false")
           << ",\n      \"points\": [\n";
        for (std::size_t i = 0; i < ladder.points.size(); ++i) {
            const Point &p = ladder.points[i];
            os << "        {\"tick_jobs\": " << p.tickJobsRequested
               << ", \"tick_jobs_resolved\": " << p.tickJobsResolved
               << ", \"wall_ms\": " << std::fixed
               << std::setprecision(2) << p.wallMs
               << ", \"cycles\": " << p.cycles << ", \"correct\": "
               << (p.correct ? "true" : "false")
               << ", \"sm_parallel\": "
               << (p.smParallel ? "true" : "false")
               << ", \"verdict_reason\": "
               << jsonQuote(p.verdictReason)
               << ", \"groups\": [";
            for (std::size_t g = 0; g < p.groupTicks.size(); ++g) {
                os << (g ? ", " : "") << "{\"name\": "
                   << jsonQuote(p.groupTicks[g].first)
                   << ", \"ticks_run\": " << p.groupTicks[g].second
                   << "}";
            }
            os << "]}"
               << (i + 1 < ladder.points.size() ? "," : "") << "\n";
        }
        os << "      ],\n      \"speedup\": "
           << "{\"parallel_vs_serial\": " << std::setprecision(2)
           << bestSpeedup(ladder.points) << "}\n    }"
           << (l + 1 < ladders.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull out `--intrasim-json FILE` before handing the standard
    // --json/--csv/--jobs set over.
    std::string artifact;
    std::vector<const char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--intrasim-json") {
            if (i + 1 >= argc)
                fatal("'--intrasim-json' needs a file path");
            artifact = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }
    MultiSink sinks;
    std::size_t jobs = 0; // unused: one cell at a time by design
    addOutputSinks(sinks, static_cast<int>(rest.size()), rest.data(),
                   &jobs);

    const std::size_t hw = TickEngine::resolveTickJobs(0);
    // Measure serial first, then the parallel ladder up to the
    // hardware concurrency (always including 4, the CI TSan/
    // determinism point, even on smaller machines).
    std::vector<std::size_t> ladder{1};
    if (hw >= 2 && hw != 4)
        ladder.push_back(std::min<std::size_t>(hw, 8));
    ladder.push_back(4);

    std::cout << "Intra-simulation parallel ticking (" << hw
              << " hardware threads)\n";

    std::vector<Ladder> ladders;
    ladders.push_back(runLadder(
        "memory_bound",
        "memory-bound: vecadd, 2 SMs / 8 partitions",
        "vecadd n=262144 (gf106, 2 SMs / 8 partitions, "
        "48 warps/SM, dramQueueSize=64)",
        memoryBoundSpec, ladder));
    ladders.push_back(runLadder(
        "compute_bound",
        "compute-bound: compute_stream, 8 SMs / 2 partitions",
        "compute_stream n=32768 fmaDepth=192 (gf106, 8 SMs / "
        "2 partitions, 48 warps/SM)",
        computeBoundSpec, ladder));
    ladders.push_back(runLadder(
        "loop_kernel",
        "loop kernel: gemm, 8 SMs / 2 partitions",
        "gemm n=128 (gf106, 8 SMs / 2 partitions, 48 warps/SM)",
        loopKernelSpec, ladder));

    bool ok = true;
    for (const Ladder &l : ladders) {
        ok &= l.identical;
        for (const Point &p : l.points) {
            ok &= p.correct;
            sinks.write(p.rec);
        }
    }
    sinks.finish();

    if (!artifact.empty())
        writeArtifact(artifact, ladders);
    return ok ? 0 : 1;
}
