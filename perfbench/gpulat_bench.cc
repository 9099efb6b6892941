/**
 * @file
 * The gpulat benchmark driver. One process runs one named workload
 * for a fixed host-time budget, checks every simulated cell, and
 * prints end-to-end metrics (untraced) or per-layer metrics (traced)
 * as one JSON object on its last stdout line.
 *
 * Layers are timed from outside, around calls into the library's
 * public functions: buildConfig, WorkloadRegistry::create, Gpu::Gpu,
 * Workload::run, collectRecord, JsonSink::write and
 * ParallelRunner::run; analyzeSmParallelSafety, computeBreakdown /
 * computeExposure and pickDramRequest are replayed on the cell's own
 * inputs (they run inside other calls). Simulated counters come from
 * the ExperimentRecord and gpu.engine().
 *
 *   gpulat_bench --workload NAME [--seed N] [--seconds S]
 *                [--trace 0|1] [--quick]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hh"
#include "api/parallel_runner.hh"
#include "api/workload_registry.hh"
#include "bench_core.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "replay.hh"

using namespace gpulat;
using namespace perfbench;

namespace {

/** The seed whose cycles and instructions are pinned per cell. */
constexpr std::uint64_t kDefaultSeed = 1;

const char *const kDomains[] = {"core", "icnt", "l2", "dram"};

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
};

/** One simulated experiment of a workload. */
struct Cell
{
    std::string id;
    ExperimentSpec spec;
    /** Table-I probe: "<preset>.<level>" and the paper's cycles. */
    std::string table1;
    double paperCycles = 0.0;
};

struct WorkloadDef
{
    std::string name;
    std::size_t workers = 1; ///< >1: cells run on a ParallelRunner
    std::vector<Cell> cells;
};

/** Pinned totals at kDefaultSeed, keyed "<mode>:<cell id>". */
const std::map<std::string, Pin> &
pins()
{
    static const std::map<std::string, Pin> table = {
        {"full:compute_gemm", {102546, 979456}},
        {"full:mem_stream", {544072, 155648}},
        {"full:serve.mixed", {199198, 724992}},
        {"full:suite.bfs", {249106, 62070}},
        {"full:suite.compute_stream", {4012, 12288}},
        {"full:suite.gemm", {17066, 124032}},
        {"full:suite.histogram", {7067, 2432}},
        {"full:suite.reduction", {6750, 43840}},
        {"full:suite.scan", {6725, 20704}},
        {"full:suite.spmv", {137206, 14720}},
        {"full:suite.stencil2d", {16019, 35360}},
        {"full:suite.transpose_naive", {61062, 7168}},
        {"full:suite.transpose_tiled", {35510, 15680}},
        {"full:suite.vecadd", {13248, 9728}},
        {"full:table1.gf106.dram", {700520, 1034}},
        {"full:table1.gf106.l1", {90386, 1098}},
        {"full:table1.gf106.l2", {1017472, 2058}},
        {"full:table1.gk104.dram", {308144, 1034}},
        {"full:table1.gk104.l1", {51200, 1291}},
        {"full:table1.gk104.l2", {795398, 3082}},
        {"full:table1.gm107.dram", {358472, 1034}},
        {"full:table1.gm107.l2", {3063922, 9226}},
        {"full:table1.gt200.dram", {450257, 1034}},
        {"quick:compute_gemm", {10578, 15904}},
        {"quick:mem_stream", {37854, 9728}},
        {"quick:serve.mixed", {33192, 90624}},
        {"quick:suite.bfs", {249106, 62070}},
        {"quick:suite.compute_stream", {2866, 6144}},
        {"quick:suite.gemm", {17066, 124032}},
        {"quick:suite.histogram", {5413, 1216}},
        {"quick:suite.reduction", {3868, 10960}},
        {"quick:suite.scan", {5454, 10352}},
        {"quick:suite.spmv", {55170, 7360}},
        {"quick:suite.stencil2d", {8301, 17440}},
        {"quick:suite.transpose_naive", {61062, 7168}},
        {"quick:suite.transpose_tiled", {35510, 15680}},
        {"quick:suite.vecadd", {3620, 2432}},
        {"quick:table1.gf106.dram", {700520, 1034}},
        {"quick:table1.gf106.l1", {90386, 1098}},
        {"quick:table1.gf106.l2", {1017472, 2058}},
        {"quick:table1.gk104.dram", {308144, 1034}},
        {"quick:table1.gk104.l1", {51200, 1291}},
        {"quick:table1.gk104.l2", {795398, 3082}},
        {"quick:table1.gm107.dram", {358472, 1034}},
        {"quick:table1.gm107.l2", {3063922, 9226}},
        {"quick:table1.gt200.dram", {450257, 1034}},
    };
    return table;
}

// ------------------------------------------------------ workloads

void
addSeed(ExperimentSpec &spec, std::uint64_t seed)
{
    const WorkloadEntry *entry =
        WorkloadRegistry::instance().find(spec.workload);
    const std::string s = std::to_string(seed);
    for (const WorkloadParamSpec &p : entry->params) {
        if (p.name == "seed")
            spec.params.push_back("seed=" + s);
    }
    spec.overrides.push_back("seed=" + s);
}

Cell
makeCell(std::string id, std::string gpu, std::string workload,
         std::vector<std::string> params,
         std::vector<std::string> overrides = {})
{
    Cell c;
    c.id = std::move(id);
    c.spec.gpu = std::move(gpu);
    c.spec.workload = std::move(workload);
    c.spec.params = std::move(params);
    c.spec.overrides = std::move(overrides);
    return c;
}

/**
 * The Table-I probe plan of bench_table1_static_latency: a
 * half-capacity footprint pins the chase to one level; beyond the
 * last cache the cold chase skips its warm-up traversal.
 */
std::vector<Cell>
table1Cells()
{
    struct Column
    {
        const char *preset;
        double l1, l2, dram; ///< 0 = not published
    };
    static const Column kPaper[] = {
        {"gt200", 0, 0, 440},
        {"gf106", 45, 310, 685},
        {"gk104", 30, 175, 300},
        {"gm107", 0, 194, 350},
    };
    std::vector<Cell> cells;
    for (const Column &col : kPaper) {
        const GpuConfig cfg = makeConfig(col.preset);
        auto probe = [&](const char *level, double paper,
                         const std::string &space,
                         std::uint64_t footprint, bool warmup) {
            Cell c = makeCell(
                std::string("table1.") + col.preset + "." + level,
                col.preset, "pchase",
                {"space=" + space,
                 "footprintBytes=" + std::to_string(footprint),
                 "strideBytes=" + std::to_string(cfg.sm.lineBytes),
                 "timedAccesses=1024",
                 warmup ? "warmup=true" : "warmup=false"});
            if (space == "local") {
                c.spec.overrides.push_back("localBytesPerThread=" +
                                           std::to_string(footprint));
            }
            c.table1 = std::string(col.preset) + "." + level;
            c.paperCycles = paper;
            cells.push_back(std::move(c));
        };
        const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
        const std::uint64_t l2 = cfg.totalL2Bytes();
        if (cfg.sm.l1Enabled && cfg.sm.l1CachesGlobal)
            probe("l1", col.l1, "global", l1 / 2, true);
        else if (cfg.sm.l1Enabled && cfg.sm.l1CachesLocal)
            probe("l1", col.l1, "local", l1 / 2, true);
        if (cfg.partition.l2Enabled)
            probe("l2", col.l2, "global", l2 / 2, true);
        probe("dram", col.dram, "global",
              l2 ? l2 * 3 : std::uint64_t{1} << 20, false);
    }
    return cells;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "mem_stream", "compute_gemm", "paper_sweep"};
    return names;
}

/**
 * Build a workload's cells. --quick shrinks inputs and device memory
 * for the benchmark's own tests; its cells are pinned separately.
 */
std::optional<WorkloadDef>
makeWorkload(const std::string &name, std::uint64_t seed, bool quick)
{
    WorkloadDef wd;
    wd.name = name;
    if (name == "mem_stream") {
        wd.cells.push_back(makeCell(
            name, "gf106", "vecadd",
            {quick ? "n=16384" : "n=262144"},
            {"numSms=2", "numPartitions=8", "deviceMemBytes=67108864"}));
    } else if (name == "compute_gemm") {
        wd.cells.push_back(makeCell(name, "gf106", "gemm",
                                    {quick ? "n=32" : "n=128"},
                                    {"numSms=8", "numPartitions=2"}));
    } else if (name == "paper_sweep") {
        // The serving cell goes first: it is the longest, and the
        // runner's workers then balance the short cells around it.
        wd.workers = 2;
        wd.cells.push_back(makeCell(
            "serve.mixed", "gf100-sim", "serve.mixed",
            {quick ? "launches=6" : "launches=48", "load=4"},
            {"serving.policy=fair-share"}));
        for (Cell &c : table1Cells())
            wd.cells.push_back(std::move(c));
        const WorkloadRegistry &reg = WorkloadRegistry::instance();
        for (const std::string &w : reg.names()) {
            if (!reg.find(w)->benchSuite)
                continue;
            Cell c = makeCell("suite." + w, "gf100-sim", w, {});
            c.spec.scale = quick ? 0.05 : 0.25;
            wd.cells.push_back(std::move(c));
        }
    } else {
        return std::nullopt;
    }
    for (Cell &c : wd.cells) {
        addSeed(c.spec, seed);
        if (quick)
            c.spec.overrides.push_back("deviceMemBytes=33554432");
    }
    return wd;
}

// ------------------------------------------------------ one cell

/** Raw per-cell readings behind the per-layer metrics. */
struct Layers
{
    std::uint64_t steps = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t ffWindows = 0;
    std::uint64_t memUsed = 0;
    std::uint64_t memSize = 0;
    double queueWaitSum = 0.0;
    std::uint64_t queueWaitCount = 0;

    /** @name Replays (traced repetitions only) @{ */
    double analysisMs = 0.0;
    double breakdownMs = 0.0;
    double pickNs = 0.0;
    std::uint64_t traces = 0;
    double latencySum = 0.0;
    std::array<std::uint64_t, kNumStages> stageCycles{};
    std::uint64_t exposureTotal = 0;
    std::uint64_t exposureExposed = 0;
    /** Why the replay does not stand for the cell ("" when it does). */
    std::string replayError;
    /** @} */
};

struct CellOutcome
{
    bool ran = false; ///< produced a record
    std::string error;
    ExperimentRecord rec;
    double setupS = 0.0;     ///< buildConfig + create + Gpu::Gpu
    double constructS = 0.0; ///< Gpu::Gpu
    double runS = 0.0;       ///< Workload::run (serial path only)
    double collectS = 0.0;
    double sinkS = 0.0;
    double cellS = 0.0;      ///< whole cell on its worker
    /** Thread CPU seconds behind the simulation rates: Workload::run
     *  on the serial path; on a runner, the whole cell on its worker,
     *  set-up included (no hook splits it there). */
    double simCpuS = 0.0;
    Layers layers;
};

/** Counters, engine and memory readings that need the live Gpu. */
void
readGpu(Gpu &gpu, Layers &l)
{
    l.steps = gpu.engine().steps();
    l.skippedCycles = gpu.engine().skippedCycles();
    l.ffWindows = gpu.engine().fastForwardWindows();
    l.memUsed = gpu.memory().allocated();
    l.memSize = gpu.memory().size();
    const StatRegistry &stats = gpu.stats();
    for (const auto &[name, scalar] : stats.scalars()) {
        (void)scalar;
        if (name.find(".dram_queue_wait") == std::string::npos)
            continue;
        const auto delta = stats.scalarSinceEpoch(name);
        l.queueWaitSum += delta.sum;
        l.queueWaitCount += delta.count;
    }
}

/** The replayed layers of a finished cell, each under its span. */
void
replayLayers(Gpu &gpu, const Cell &cell, const ExperimentRecord &rec,
             Tracer &tracer, std::int64_t parent, Layers &l)
{
    {
        Scope s(tracer, "computeBreakdown+computeExposure", cell.id,
                parent);
        const Clock::time_point t0 = Clock::now();
        const auto &traces = gpu.latencies().traces();
        const Breakdown bd = computeBreakdown(traces, 48);
        const ExposureBreakdown ex =
            computeExposure(gpu.exposure().records(), 48);
        l.breakdownMs = 1e3 * secondsBetween(t0, Clock::now());
        l.traces = traces.size();
        for (const auto &t : traces)
            l.latencySum += static_cast<double>(t.total());
        l.stageCycles = bd.totalByStage;
        for (const ExposureBucket &b : ex.buckets) {
            l.exposureTotal += b.totalCycles;
            l.exposureExposed += b.exposedCycles;
        }
    }
    {
        Scope s(tracer, "analyzeSmParallelSafety", cell.id, parent);
        const AnalysisReplay a = replayAnalysis(cell.spec, rec);
        l.analysisMs = a.ms;
        if (!a.known) {
            l.replayError = "replay.cc has no launch shapes for workload " +
                            cell.spec.workload;
        } else if (a.lastSafe !=
                   (rec.metric("analysis.sm_parallel") != 0.0)) {
            l.replayError = "replayed analysis verdict differs from the "
                            "record's; replay.cc has drifted from the "
                            "workload";
        }
    }
    {
        Scope s(tracer, "pickDramRequest", cell.id, parent);
        l.pickNs = replayFrfcfsPickNs(gpu.config(), l.memUsed);
    }
}

/**
 * Run one cell through the individual public calls, timing each.
 * The Gpu is destroyed before returning.
 */
CellOutcome
runDirect(const Cell &cell, Tracer &tracer, std::int64_t parent,
          JsonSink &sink, bool layers)
{
    CellOutcome out;
    Scope cellSpan(tracer, "cell", cell.id, parent);
    const std::int64_t p = cellSpan.id();
    try {
        const Clock::time_point t0 = Clock::now();
        GpuConfig cfg;
        {
            Scope s(tracer, "buildConfig", cell.id, p);
            cfg = buildConfig(cell.spec);
        }
        std::unique_ptr<Workload> workload;
        {
            Scope s(tracer, "WorkloadRegistry::create", cell.id, p);
            workload = WorkloadRegistry::instance().create(
                cell.spec.workload, effectiveParams(cell.spec));
        }
        const Clock::time_point t1 = Clock::now();
        std::unique_ptr<Gpu> gpu;
        {
            Scope s(tracer, "Gpu::Gpu", cell.id, p);
            gpu = std::make_unique<Gpu>(cfg);
        }
        const Clock::time_point t2 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        WorkloadResult result;
        {
            Scope s(tracer, "Workload::run", cell.id, p);
            result = workload->run(*gpu);
        }
        out.simCpuS = threadCpuSeconds() - cpu0;
        const Clock::time_point t3 = Clock::now();
        {
            Scope s(tracer, "collectRecord", cell.id, p);
            out.rec = collectRecord(*gpu, cell.spec, result);
        }
        const Clock::time_point t4 = Clock::now();
        {
            Scope s(tracer, "JsonSink::write", cell.id, p);
            sink.write(out.rec);
        }
        const Clock::time_point t5 = Clock::now();
        out.ran = true;
        out.setupS = secondsBetween(t0, t2);
        out.constructS = secondsBetween(t1, t2);
        out.runS = secondsBetween(t2, t3);
        out.collectS = secondsBetween(t3, t4);
        out.sinkS = secondsBetween(t4, t5);
        out.cellS = secondsBetween(t0, t5);
        readGpu(*gpu, out.layers);
        if (layers)
            replayLayers(*gpu, cell, out.rec, tracer, p, out.layers);
    } catch (const std::exception &e) {
        out.ran = false;
        out.error = e.what();
    }
    return out;
}

// ------------------------------------------------------ one repetition

struct RepResult
{
    double wallS = 0.0;
    double setupS = 0.0;
    double simCpuS = 0.0; ///< Σ CellOutcome::simCpuS
    std::size_t workers = 1;
    std::vector<CellOutcome> cells;
};

/**
 * Set-up of a runner workload, replayed serially outside the sweep:
 * ParallelRunner::run offers no hook before a cell's first cycle.
 * Each distinct config is built and constructed once and charged to
 * every cell using it (construction depends only on the config);
 * WorkloadRegistry::create is timed per cell.
 */
double
replaySetup(const WorkloadDef &wd, Tracer &tracer, std::int64_t parent)
{
    Scope span(tracer, "setup replay", "", parent);
    std::map<std::string, double> perConfig;
    double total = 0.0;
    for (const Cell &cell : wd.cells) {
        std::string key = cell.spec.gpu;
        for (const std::string &o : cell.spec.overrides)
            key += " " + o;
        if (!perConfig.count(key)) {
            std::unique_ptr<Gpu> gpu;
            const Clock::time_point t0 = Clock::now();
            {
                Scope s(tracer, "buildConfig+Gpu::Gpu", cell.id,
                        span.id());
                gpu = std::make_unique<Gpu>(buildConfig(cell.spec));
            }
            perConfig[key] = secondsBetween(t0, Clock::now());
        }
        const Clock::time_point t0 = Clock::now();
        {
            Scope s(tracer, "WorkloadRegistry::create", cell.id,
                    span.id());
            WorkloadRegistry::instance().create(
                cell.spec.workload, effectiveParams(cell.spec));
        }
        total += perConfig[key] + secondsBetween(t0, Clock::now());
    }
    return total;
}

RepResult
runSweep(const WorkloadDef &wd, Tracer &tracer, std::int64_t parent)
{
    RepResult rep;
    rep.workers = wd.workers;
    rep.cells.resize(wd.cells.size());
    std::vector<ExperimentSpec> specs;
    for (const Cell &c : wd.cells)
        specs.push_back(c.spec);

    std::ostringstream json;
    JsonSink sink(json);
    struct Mark
    {
        Clock::time_point wall;
        double cpu = 0.0; ///< thread CPU seconds
    };
    std::mutex mu; // guards lastEnd
    // A worker's first cell starts with the sweep (wall) and with the
    // thread (CPU), unless the runner runs it on the caller's thread.
    std::map<std::thread::id, Mark> lastEnd;
    const Clock::time_point t0 = Clock::now();
    lastEnd[std::this_thread::get_id()] = {t0, threadCpuSeconds()};
    std::int64_t runnerSpan = 0;

    // Worker thread, after the simulation: the cell's host time
    // runs from the end of the previous cell on this worker.
    auto inspect = [&](std::size_t i, Gpu &gpu, const ExperimentRecord &) {
        const Mark end{Clock::now(), threadCpuSeconds()};
        Mark start{t0, 0.0};
        {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = lastEnd.find(std::this_thread::get_id());
            if (it != lastEnd.end())
                start = it->second;
        }
        CellOutcome &out = rep.cells[i];
        out.cellS = secondsBetween(start.wall, end.wall);
        out.simCpuS = end.cpu - start.cpu;
        tracer.add("cell", wd.cells[i].id, runnerSpan, start.wall,
                   end.wall);
        readGpu(gpu, out.layers);
        std::lock_guard<std::mutex> lock(mu);
        lastEnd[std::this_thread::get_id()] = {Clock::now(),
                                               threadCpuSeconds()};
    };
    // Caller thread, in spec order.
    auto commit = [&](std::size_t i, const JobOutcome &o) {
        CellOutcome &out = rep.cells[i];
        if (o.failed) {
            out.error = o.error;
            return;
        }
        out.ran = true;
        out.rec = o.record;
        Scope s(tracer, "JsonSink::write", wd.cells[i].id, runnerSpan);
        const Clock::time_point w0 = Clock::now();
        sink.write(o.record);
        out.sinkS = secondsBetween(w0, Clock::now());
    };
    {
        Scope s(tracer, "ParallelRunner::run", "", parent);
        runnerSpan = s.id();
        ParallelRunner(wd.workers).run(specs, inspect, commit);
        sink.finish();
    }
    rep.wallS = secondsBetween(t0, Clock::now());
    rep.setupS = replaySetup(wd, tracer, parent);
    for (const CellOutcome &c : rep.cells)
        rep.simCpuS += c.simCpuS;
    return rep;
}

RepResult
runSerial(const WorkloadDef &wd, Tracer &tracer, std::int64_t parent,
          bool layers)
{
    RepResult rep;
    std::ostringstream json;
    JsonSink sink(json);
    const Clock::time_point t0 = Clock::now();
    for (const Cell &cell : wd.cells)
        rep.cells.push_back(runDirect(cell, tracer, parent, sink, layers));
    sink.finish();
    rep.wallS = secondsBetween(t0, Clock::now());
    for (const CellOutcome &c : rep.cells) {
        rep.setupS += c.setupS;
        rep.simCpuS += c.simCpuS;
    }
    return rep;
}

// ------------------------------------------------------ correctness

/**
 * The per-cell correctness gate: the cell ran and verified against
 * its CPU reference, reproduces the cycles and instructions of its
 * first execution in this process, matches its pin at the default
 * seed, and (Table-I probes) lands within the paper's tolerance.
 */
class Checker
{
  public:
    Checker(bool pinned, bool quick) : pinned_(pinned), quick_(quick) {}

    bool
    check(const Cell &cell, const CellOutcome &out)
    {
        std::string why;
        if (!out.ran) {
            why = "threw: " + out.error;
        } else if (!out.rec.correct) {
            why = "did not verify against its CPU reference";
        } else {
            const Pin got{out.rec.cycles, out.rec.instructions};
            const auto first = firstSeen_.emplace(cell.id, got).first;
            why = pinViolation(&first->second, got.cycles,
                               got.instructions);
            if (!why.empty())
                why = "not reproducible: " + why;
            if (why.empty() && pinned_) {
                const std::string key =
                    std::string(quick_ ? "quick:" : "full:") + cell.id;
                const auto it = pins().find(key);
                why = it == pins().end()
                    ? "no pinned value for " + key + " (cycles " +
                          std::to_string(got.cycles) + ", instructions " +
                          std::to_string(got.instructions) + ")"
                    : pinViolation(&it->second, got.cycles,
                                   got.instructions);
            }
            if (why.empty() && cell.paperCycles > 0) {
                const double err = table1ErrPct(
                    {cell.paperCycles,
                     out.rec.metric("pchase_cycles_per_access")});
                if (err > kTable1TolerancePct)
                    why = "Table-I error " + std::to_string(err) + "%";
            }
            if (why.empty())
                why = out.layers.replayError;
        }
        tally_.add(why.empty());
        if (!why.empty())
            std::cerr << "FAILED cell " << cell.id << ": " << why << "\n";
        return why.empty();
    }

    void
    checkRep(const WorkloadDef &wd, const RepResult &rep)
    {
        for (std::size_t i = 0; i < wd.cells.size(); ++i)
            check(wd.cells[i], rep.cells[i]);
    }

    /** A cell run that could not be compared counts as failed. */
    void
    fail(const std::string &what)
    {
        tally_.add(false);
        std::cerr << "FAILED " << what << "\n";
    }

    const Tally &tally() const { return tally_; }

  private:
    bool pinned_;
    bool quick_;
    std::map<std::string, Pin> firstSeen_;
    Tally tally_;
};

// ------------------------------------------------------ metrics

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"sim_cycles_per_s", "1/s"},
        {"warp_instr_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"api.collect_ms", "ms"},
            {"api.sink_ms", "ms"},
            {"api.runner_busy_pct", "%"},
            {"workloads.run_ms", "ms"},
            {"workloads.launches", "count"},
            {"gpu.construct_ms", "ms"},
            {"gpu.device_mem_used_pct", "%"},
            {"gpu.analysis_ms", "ms"},
            {"engine.steps", "count"},
            {"engine.ns_per_step", "ns"},
            {"engine.ns_per_tick", "ns"},
        };
        for (const char *dom : kDomains)
            d.push_back({std::string("engine.ticks_run.") + dom, "count"});
        for (const char *dom : kDomains)
            d.push_back({std::string("engine.ff_skip_pct.") + dom, "%"});
        const std::vector<MetricDef> rest = {
            {"engine.ff_windows", "count"},
            {"engine.skipped_cycles", "cycles"},
            {"engine.tick_jobs_speedup", "ratio"},
            {"simt.issued", "count"},
            {"simt.issue_per_core_tick", "ratio"},
            {"simt.idle_pct", "%"},
            {"simt.idle_on_memory_pct", "%"},
            {"simt.mem_instrs", "count"},
            {"cache.l1_hit_pct", "%"},
            {"cache.l2_hit_pct", "%"},
            {"cache.l2_accesses", "count"},
            {"cache.mshr_bank_conflicts", "count"},
            {"icnt.req_transferred", "count"},
            {"icnt.resp_transferred", "count"},
            {"icnt.arb_stall_pct", "%"},
            {"mem.dram_reads", "count"},
            {"mem.dram_writes", "count"},
            {"mem.dram_row_hit_pct", "%"},
            {"mem.dram_queue_wait_cycles", "cycles"},
            {"mem.frfcfs_pick_ns", "ns"},
            {"latency.breakdown_ms", "ms"},
            {"latency.requests", "count"},
            {"latency.mean_load_cycles", "cycles"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        for (std::size_t s = 0; s < kNumStages; ++s) {
            d.push_back({"latency.stage_pct." +
                             stageMetricSlug(static_cast<Stage>(s)),
                         "%"});
        }
        const std::vector<MetricDef> tail = {
            {"latency.exposed_pct", "%"},
            {"serving.launches", "count"},
            {"serving.mean_queue_cycles", "cycles"},
            {"serving.p99_cycles", "cycles"},
            {"serving.throughput_lpmc", "1/Mcycle"},
            {"serving.fairness_jain", "ratio"},
        };
        d.insert(d.end(), tail.begin(), tail.end());
        for (const Cell &c : table1Cells()) {
            d.push_back({"microbench.cycles_per_access." + c.table1,
                         "cycles"});
        }
        d.push_back({"microbench.table1_max_err_pct", "%"});
        d.push_back({"bench.trace_overhead_s", "s"});
        return d;
    }();
    return defs;
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

/** Largest |simulated - paper| / paper over a rep's Table-I cells. */
double
table1MaxErr(const WorkloadDef &wd, const RepResult &rep)
{
    std::vector<Table1Point> points;
    for (std::size_t i = 0; i < wd.cells.size(); ++i) {
        if (wd.cells[i].paperCycles > 0 && rep.cells[i].ran) {
            points.push_back(
                {wd.cells[i].paperCycles,
                 rep.cells[i].rec.metric("pchase_cycles_per_access")});
        }
    }
    return table1MaxErrPct(points);
}

/** Per-layer metrics of one traced repetition. */
std::map<std::string, double>
layerMetrics(const WorkloadDef &wd, const RepResult &rep)
{
    std::map<std::string, double> m;
    std::map<std::string, double> ctr; // summed record counters
    double cellS = 0, runS = 0, constructS = 0, collectS = 0, sinkS = 0;
    double memUsed = 0, memSize = 0, qwSum = 0, qwCount = 0;
    double traces = 0, latSum = 0, expTotal = 0, expExposed = 0;
    double pickWeighted = 0, pickWeight = 0;
    std::array<double, kNumStages> stages{};
    for (std::size_t i = 0; i < wd.cells.size(); ++i) {
        const CellOutcome &c = rep.cells[i];
        if (!c.ran)
            continue;
        const Layers &l = c.layers;
        cellS += c.cellS;
        runS += c.runS;
        constructS += c.constructS;
        collectS += c.collectS;
        sinkS += c.sinkS;
        for (const auto &[k, v] : c.rec.counters)
            ctr[k] += static_cast<double>(v);
        m["workloads.launches"] += c.rec.launches;
        m["gpu.analysis_ms"] += l.analysisMs;
        m["engine.steps"] += static_cast<double>(l.steps);
        m["engine.ff_windows"] += static_cast<double>(l.ffWindows);
        m["engine.skipped_cycles"] += static_cast<double>(l.skippedCycles);
        m["latency.breakdown_ms"] += l.breakdownMs;
        memUsed += static_cast<double>(l.memUsed);
        memSize += static_cast<double>(l.memSize);
        qwSum += l.queueWaitSum;
        qwCount += static_cast<double>(l.queueWaitCount);
        traces += static_cast<double>(l.traces);
        latSum += l.latencySum;
        expTotal += static_cast<double>(l.exposureTotal);
        expExposed += static_cast<double>(l.exposureExposed);
        for (std::size_t s = 0; s < kNumStages; ++s)
            stages[s] += static_cast<double>(l.stageCycles[s]);
        // Weight the pick cost by the DRAM traffic that pays it.
        const double dram = c.rec.counters.count("dram_reads")
            ? static_cast<double>(c.rec.counters.at("dram_reads") +
                                  c.rec.counters.at("dram_writes"))
            : 0.0;
        pickWeighted += l.pickNs * std::max(dram, 1.0);
        pickWeight += std::max(dram, 1.0);
        if (c.rec.workload.rfind("serve.", 0) == 0) {
            m["serving.launches"] += c.rec.metric("serving.launches");
            m["serving.mean_queue_cycles"] =
                c.rec.metric("serving.mean_queue_cycles");
            m["serving.p99_cycles"] = c.rec.metric("serving.p99_latency");
            m["serving.throughput_lpmc"] =
                c.rec.metric("serving.throughput_lpmc");
            m["serving.fairness_jain"] =
                c.rec.metric("serving.fairness_jain");
        }
        if (!wd.cells[i].table1.empty()) {
            m["microbench.cycles_per_access." + wd.cells[i].table1] =
                c.rec.metric("pchase_cycles_per_access");
        }
    }
    auto get = [&ctr](const std::string &k) {
        const auto it = ctr.find(k);
        return it == ctr.end() ? 0.0 : it->second;
    };
    m["api.collect_ms"] = 1e3 * collectS;
    m["api.sink_ms"] = 1e3 * sinkS;
    m["api.runner_busy_pct"] =
        pct(cellS, static_cast<double>(rep.workers) * rep.wallS);
    m["workloads.run_ms"] = 1e3 * runS;
    m["gpu.construct_ms"] = 1e3 * constructS;
    m["gpu.device_mem_used_pct"] = pct(memUsed, memSize);
    double ticks = 0;
    for (const char *dom : kDomains) {
        const std::string p = std::string("engine.") + dom;
        const double run = get(p + ".ticks_run");
        ticks += run;
        m[std::string("engine.ticks_run.") + dom] = run;
        m[std::string("engine.ff_skip_pct.") + dom] =
            pct(get(p + ".ticks_skipped"), run + get(p + ".ticks_skipped"));
    }
    const double steps = m["engine.steps"];
    m["engine.ns_per_step"] = steps > 0 ? 1e9 * runS / steps : 0.0;
    m["engine.ns_per_tick"] = ticks > 0 ? 1e9 * runS / ticks : 0.0;
    m["simt.issued"] = get("issued");
    const double coreTicks = get("engine.core.ticks_run");
    m["simt.issue_per_core_tick"] =
        coreTicks > 0 ? get("issued") / coreTicks : 0.0;
    m["simt.idle_pct"] = pct(get("idle_cycles"), get("active_cycles"));
    m["simt.idle_on_memory_pct"] =
        pct(get("idle_on_memory"), get("idle_cycles"));
    m["simt.mem_instrs"] = get("mem_instrs");
    m["cache.l1_hit_pct"] =
        pct(get("l1.hits"), get("l1.hits") + get("l1.misses"));
    m["cache.l2_hit_pct"] =
        pct(get("l2.hits"), get("l2.hits") + get("l2.misses"));
    m["cache.l2_accesses"] = get("l2_accesses");
    m["cache.mshr_bank_conflicts"] = get("l2_mshr_bank_conflicts");
    m["icnt.req_transferred"] = get("icnt.req.transferred");
    m["icnt.resp_transferred"] = get("icnt.resp.transferred");
    const double stalls =
        get("icnt.req.arb_stalls") + get("icnt.resp.arb_stalls");
    m["icnt.arb_stall_pct"] =
        pct(stalls, stalls + get("icnt.req.transferred") +
                        get("icnt.resp.transferred"));
    m["mem.dram_reads"] = get("dram_reads");
    m["mem.dram_writes"] = get("dram_writes");
    m["mem.dram_row_hit_pct"] =
        pct(get("dram.row_hits"), get("dram.row_hits") +
                                      get("dram.row_misses") +
                                      get("dram.row_closed"));
    m["mem.dram_queue_wait_cycles"] = qwCount > 0 ? qwSum / qwCount : 0.0;
    m["mem.frfcfs_pick_ns"] =
        pickWeight > 0 ? pickWeighted / pickWeight : 0.0;
    m["latency.requests"] = traces;
    m["latency.mean_load_cycles"] = traces > 0 ? latSum / traces : 0.0;
    double stageTotal = 0;
    for (const double s : stages)
        stageTotal += s;
    for (std::size_t s = 0; s < kNumStages; ++s) {
        m["latency.stage_pct." + stageMetricSlug(static_cast<Stage>(s))] =
            pct(stages[s], stageTotal);
    }
    m["latency.exposed_pct"] = pct(expExposed, expTotal);
    m["microbench.table1_max_err_pct"] = table1MaxErr(wd, rep);
    return m;
}

/** Per metric, the median over several maps. */
std::map<std::string, double>
medianMetrics(const std::vector<std::map<std::string, double>> &maps)
{
    std::map<std::string, std::vector<double>> values;
    for (const auto &m : maps)
        for (const auto &[k, v] : m)
            values[k].push_back(v);
    std::map<std::string, double> out;
    for (const auto &[k, v] : values)
        out[k] = median(v);
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
printHuman(const std::string &title, const std::vector<MetricDef> &defs,
           const std::map<std::string, double> &values)
{
    std::cout << title << "\n";
    for (const MetricDef &d : defs) {
        const auto it = values.find(d.name);
        std::cout << "  " << std::left << std::setw(46) << d.name
                  << std::right << std::setw(18) << std::fixed
                  << std::setprecision(4)
                  << finite(it == values.end() ? 0.0 : it->second) << " "
                  << d.unit << "\n";
    }
    std::cout.unsetf(std::ios::floatfield);
}

std::string
resultJson(const Tally &tally, const std::vector<MetricDef> &defs,
           const std::map<std::string, double> &values)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        os << (i ? ", " : "") << "\"" << defs[i].name
           << "\": {\"value\": "
           << finite(it == values.end() ? 0.0 : it->second)
           << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

int
usage(const std::string &why)
{
    std::cerr << "gpulat_bench: " << why << "\n"
              << "usage: gpulat_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick]\nworkloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

/** Repetitions until the budget is spent: at least @p min_reps, and
 *  a new one only if it is expected to end inside the budget. */
template <typename Rep>
std::vector<RepResult>
repeat(double budget, std::size_t min_reps, Rep &&rep)
{
    std::vector<RepResult> reps;
    const Clock::time_point t0 = Clock::now();
    double last = 0.0;
    while (reps.size() < min_reps ||
           secondsBetween(t0, Clock::now()) + last <= budget) {
        const Clock::time_point r0 = Clock::now();
        reps.push_back(rep());
        last = secondsBetween(r0, Clock::now());
    }
    return reps;
}

/** Records of one cell at two tickJobs values must be identical. */
bool
sameRecord(const ExperimentRecord &a, const ExperimentRecord &b)
{
    return a.correct == b.correct && a.cycles == b.cycles &&
           a.instructions == b.instructions && a.launches == b.launches &&
           a.metrics == b.metrics && a.counters == b.counters;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc)
                return std::nullopt;
            return std::string(argv[++i]);
        };
        try {
            if (a == "--quick") {
                opt.quick = true;
                continue;
            }
            const auto v = value();
            if (!v)
                return usage("missing value for " + a);
            if (a == "--workload")
                opt.workload = *v;
            else if (a == "--seed")
                opt.seed = std::stoull(*v);
            else if (a == "--seconds")
                opt.seconds = std::stod(*v);
            else if (a == "--trace" && (*v == "0" || *v == "1"))
                opt.trace = *v == "1";
            else if (a == "--trace")
                return usage("--trace takes 0 or 1");
            else
                return usage("unknown option " + a);
        } catch (const std::exception &) {
            return usage("bad value for " + a);
        }
    }
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    for (const auto *defs : {&endToEndDefs(), &perLayerDefs()}) {
        for (const MetricDef &d : *defs) {
            if (!validMetricName(d.name))
                return usage("invalid metric name '" + d.name + "'");
        }
    }
    const auto wdOpt = makeWorkload(opt.workload, opt.seed, opt.quick);
    if (!wdOpt)
        return usage("unknown workload '" + opt.workload + "'");
    const WorkloadDef &wd = *wdOpt;
    const std::string traceFile = ".bench_build/traces/" + wd.name +
                                  ".seed" + std::to_string(opt.seed) +
                                  (opt.quick ? ".quick" : "") + ".json";

    const Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    Checker checker(opt.seed == kDefaultSeed, opt.quick);
    const std::size_t minReps = opt.quick ? 1 : 2;
    auto rep = [&](const char *kind) {
        const RepResult r = wd.workers > 1
            ? runSweep(wd, tracer, 0)
            : runSerial(wd, tracer, 0, false);
        checker.checkRep(wd, r);
        std::cerr << kind << " repetition: wall " << r.wallS
                  << " s, set-up " << r.setupS << " s, sim CPU "
                  << r.simCpuS << " s\n";
        return r;
    };

    // End-to-end metrics come from untraced repetitions. A traced run
    // alternates untraced and traced ones, starting untraced, so that
    // host drift over the run touches both alike and their difference
    // is the cost of recording spans.
    std::size_t count = 0;
    const std::vector<RepResult> all =
        repeat(opt.seconds, opt.trace ? minReps + 1 : minReps, [&] {
            const bool traced = opt.trace && count++ % 2 == 1;
            tracer.setEnabled(traced);
            return rep(traced ? "traced" : "untraced");
        });
    std::vector<RepResult> plain, traced;
    for (std::size_t i = 0; i < all.size(); ++i)
        (opt.trace && i % 2 ? traced : plain).push_back(all[i]);

    std::vector<double> wall, setup, cyclesRate, instrRate, t1err;
    for (const RepResult &r : plain) {
        double cycles = 0, instr = 0;
        for (const CellOutcome &c : r.cells) {
            cycles += static_cast<double>(c.rec.cycles);
            instr += static_cast<double>(c.rec.instructions);
        }
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        cyclesRate.push_back(r.simCpuS > 0 ? cycles / r.simCpuS : 0.0);
        instrRate.push_back(r.simCpuS > 0 ? instr / r.simCpuS : 0.0);
        t1err.push_back(table1MaxErr(wd, r));
    }
    std::map<std::string, double> e2e = {
        {"wall_s", median(wall)},
        {"setup_s", median(setup)},
        {"sim_cycles_per_s", median(cyclesRate)},
        {"warp_instr_per_s", median(instrRate)},
        {"peak_rss_mb", peakRssMb()},
    };

    std::map<std::string, double> layers;
    if (opt.trace) {
        tracer.setEnabled(true);
        std::vector<std::map<std::string, double>> maps;
        std::vector<double> tracedWall;
        for (const RepResult &r : traced) {
            maps.push_back(layerMetrics(wd, r));
            tracedWall.push_back(r.wallS);
        }
        layers = medianMetrics(maps);
        layers["bench.trace_overhead_s"] =
            median(tracedWall) - median(wall);

        // The replays, and on a runner the split of each cell into
        // its calls (ParallelRunner::run cannot be split from
        // outside), come from one serial pass after the timed
        // repetitions, so they add nothing to their wall_s.
        RepResult serial;
        {
            Scope s(tracer, "serial layer pass", "", 0);
            serial = runSerial(wd, tracer, s.id(), true);
        }
        checker.checkRep(wd, serial);
        for (const auto &[k, v] : layerMetrics(wd, serial)) {
            const bool replayed = k.rfind("latency.", 0) == 0 ||
                                  k == "gpu.analysis_ms" ||
                                  k == "mem.frfcfs_pick_ns";
            const bool split =
                wd.workers > 1 &&
                (k == "workloads.run_ms" || k == "gpu.construct_ms" ||
                 k == "engine.ns_per_step" || k == "engine.ns_per_tick" ||
                 k == "api.collect_ms");
            if (replayed || split)
                layers[k] = v;
        }

        // tickJobs 1 vs min(nproc, 4) on the cell with the longest
        // Workload::run; the records must not differ.
        std::size_t longest = 0;
        for (std::size_t i = 0; i < serial.cells.size(); ++i)
            if (serial.cells[i].runS > serial.cells[longest].runS)
                longest = i;
        const std::size_t jobs = std::clamp<std::size_t>(
            std::thread::hardware_concurrency(), 1, 4);
        Scope s(tracer, "tickJobs pair", wd.cells[longest].id, 0);
        std::ostringstream sinkOut;
        JsonSink sink(sinkOut);
        std::vector<CellOutcome> pair;
        for (const std::size_t tj : {std::size_t{1}, jobs}) {
            Cell c = wd.cells[longest];
            c.spec.overrides.push_back("engine.tickJobs=" +
                                       std::to_string(tj));
            pair.push_back(runDirect(c, tracer, s.id(), sink, false));
            checker.check(wd.cells[longest], pair.back());
        }
        if (pair[0].ran && pair[1].ran &&
            !sameRecord(pair[0].rec, pair[1].rec)) {
            checker.fail(wd.cells[longest].id +
                         ": records differ between tickJobs 1 and " +
                         std::to_string(jobs));
        }
        layers["engine.tick_jobs_speedup"] =
            pair[1].runS > 0 ? pair[0].runS / pair[1].runS : 0.0;

        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(traceFile).parent_path(), ec);
        std::ofstream tf(traceFile);
        tracer.writeChromeTrace(tf);
        if (!tf)
            std::cerr << "warning: could not write " << traceFile << "\n";
    }

    const Tally &tally = checker.tally();
    std::cout << "gpulat benchmark: workload " << wd.name << ", seed "
              << opt.seed << ", " << wd.cells.size() << " cell(s), "
              << wd.workers << " worker(s), " << plain.size()
              << " untraced repetition(s)\n";
    printHuman("end-to-end (median over repetitions):", endToEndDefs(),
               e2e);
    std::map<std::string, double> extra = {
        {"fail_pct", tally.failPct()},
        {"table1_max_err_pct", median(t1err)},
    };
    std::vector<MetricDef> extraDefs = {{"fail_pct", "%"}};
    if (wd.name == "paper_sweep")
        extraDefs.push_back({"table1_max_err_pct", "%"});
    printHuman("checks:", extraDefs, extra);
    if (opt.trace) {
        printHuman("per-layer (traced; trace in " + traceFile + "):",
                   perLayerDefs(), layers);
    }
    std::cout << resultJson(tally,
                            opt.trace ? perLayerDefs() : endToEndDefs(),
                            opt.trace ? layers : e2e)
              << std::endl;
    return tally.failed == 0 ? 0 : 1;
}
