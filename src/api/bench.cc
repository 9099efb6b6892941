#include "api/bench.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "api/config_override.hh"
#include "api/parallel_runner.hh"
#include "api/workload_registry.hh"
#include "common/table.hh"
#include "latency/breakdown.hh"
#include "latency/exposure.hh"
#include "latency/summary.hh"

namespace gpulat {

namespace {

ExperimentSpec
spec(std::string gpu, std::string workload,
     std::vector<std::string> params,
     std::vector<std::string> overrides = {})
{
    ExperimentSpec s;
    s.gpu = std::move(gpu);
    s.workload = std::move(workload);
    s.params = std::move(params);
    s.overrides = std::move(overrides);
    return s;
}

std::string
param(const ExperimentRecord &rec, const std::string &key)
{
    const auto it = rec.params.find(key);
    return it == rec.params.end() ? "" : it->second;
}

std::string
overrideOf(const ExperimentRecord &rec, const std::string &key)
{
    const auto it = rec.overrides.find(key);
    return it == rec.overrides.end() ? "" : it->second;
}

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : " ") + s;
    return out;
}

/** A record's identity: everything that selects the cell. */
std::string
cellKey(const ExperimentRecord &rec)
{
    std::string key = rec.gpu + " " + rec.workload;
    for (const auto &[k, v] : rec.params)
        key += " " + k + "=" + v;
    for (const auto &[k, v] : rec.overrides)
        key += " " + k + "=" + v;
    return key;
}

/** JSON and CSV of @p records, the two renderings compared. */
std::string
render(const Records &records)
{
    std::ostringstream json;
    std::ostringstream csv;
    JsonSink js(json);
    CsvSink cs(csv);
    for (const ExperimentRecord &rec : records) {
        js.write(rec);
        cs.write(rec);
    }
    js.finish();
    return json.str() + csv.str();
}

// ------------------------------------------------------------- gates

GateResult
allCorrect(const Records &records)
{
    for (const ExperimentRecord &rec : records) {
        if (!rec.correct)
            return {false, cellKey(rec) + " did not verify"};
    }
    return {true, std::to_string(records.size()) + " cells verified"};
}

/** Cells that differ only in execution knobs render identically. */
GateResult
sameRecordPerCell(const Records &records)
{
    std::map<std::string, std::string> seen;
    for (const ExperimentRecord &rec : records) {
        const auto [it, fresh] =
            seen.emplace(cellKey(rec), render({rec}));
        if (!fresh && it->second != render({rec}))
            return {false, cellKey(rec) + " differs across tickJobs"};
    }
    return {true, std::to_string(records.size()) + " records, " +
                      std::to_string(seen.size()) +
                      " distinct cells, each byte-identical"};
}

// ------------------------------------------------------------ Table I

/** Acceptable relative deviation from the paper's cycle counts. */
constexpr double kTable1Tolerance = 0.10;

ExperimentSpec
probeSpec(const GpuConfig &cfg, const char *space,
          std::uint64_t footprint, bool warmup)
{
    ExperimentSpec s = spec(
        cfg.name, "pchase",
        {std::string("space=") + space,
         "footprintBytes=" + std::to_string(footprint),
         "strideBytes=" + std::to_string(cfg.sm.lineBytes),
         "timedAccesses=1024",
         warmup ? "warmup=true" : "warmup=false"});
    // Local chases need the per-thread local window to hold the
    // whole chain.
    if (std::string(space) == "local") {
        s.overrides = {"localBytesPerThread=" +
                       std::to_string(footprint)};
    }
    return s;
}

} // namespace

/**
 * The plan is derived from each preset's cache topology: a
 * half-capacity footprint pins the chase to one hierarchy level;
 * beyond the last cache the (cold) chase skips its warm-up
 * traversal.
 */
const std::vector<Table1Probe> &
table1Probes()
{
    static const std::vector<Table1Probe> probes = [] {
        struct PaperColumn
        {
            const char *preset;
            double l1, l2, dram; ///< 0 = not published ("x")
        };
        const PaperColumn paper[] = {
            {"gt200", 0, 0, 440},
            {"gf106", 45, 310, 685},
            {"gk104", 30, 175, 300},
            {"gm107", 0, 194, 350},
        };
        std::vector<Table1Probe> out;
        for (const PaperColumn &col : paper) {
            const GpuConfig cfg = makeConfig(col.preset);
            const std::uint64_t l1 = cfg.sm.l1Cache.capacityBytes;
            const std::uint64_t l2 = cfg.totalL2Bytes();
            if (cfg.sm.l1Enabled && cfg.sm.l1CachesGlobal) {
                out.push_back({col.preset, "L1 D$", col.l1,
                               probeSpec(cfg, "global", l1 / 2, true)});
            } else if (cfg.sm.l1Enabled && cfg.sm.l1CachesLocal) {
                // Kepler: the L1 is visible through local space only.
                out.push_back({col.preset, "L1 D$", col.l1,
                               probeSpec(cfg, "local", l1 / 2, true)});
            }
            if (cfg.partition.l2Enabled) {
                out.push_back({col.preset, "L2 D$", col.l2,
                               probeSpec(cfg, "global", l2 / 2, true)});
            }
            const std::uint64_t dram_fp =
                l2 ? l2 * 3 : std::uint64_t{1} << 20;
            out.push_back({col.preset, "DRAM", col.dram,
                           probeSpec(cfg, "global", dram_fp, false)});
        }
        return out;
    }();
    return probes;
}

namespace {

/** The probe a pchase record measured, or null. */
const Table1Probe *
findProbe(const ExperimentRecord &rec)
{
    for (const Table1Probe &p : table1Probes()) {
        const auto &ps = p.spec.params;
        if (p.gpu == rec.gpu &&
            std::count(ps.begin(), ps.end(),
                       "space=" + param(rec, "space")) &&
            std::count(ps.begin(), ps.end(),
                       "footprintBytes=" +
                           param(rec, "footprintBytes")))
            return &p;
    }
    return nullptr;
}

GateResult
table1WithinTolerance(const Records &records)
{
    GateResult result{true, ""};
    double worst = 0.0;
    std::size_t checked = 0;
    for (const ExperimentRecord &rec : records) {
        const Table1Probe *probe = findProbe(rec);
        if (!probe || probe->paperCycles == 0)
            continue;
        ++checked;
        const double rel =
            (rec.metric("pchase_cycles_per_access") -
             probe->paperCycles) / probe->paperCycles;
        if (std::fabs(rel) > std::fabs(worst) || checked == 1) {
            worst = rel;
            result.detail = rec.gpu + " " + probe->unit;
        }
        if (std::fabs(rel) > kTable1Tolerance)
            result.ok = false;
    }
    result.ok = result.ok && checked > 0;
    result.detail = std::to_string(checked) +
        " probes, worst " + result.detail + " " +
        formatDouble(worst * 100, 1) + "% (tolerance " +
        formatDouble(kTable1Tolerance * 100, 0) + "%)";
    return result;
}

/**
 * The probes' cycles laid out like the paper's table: one column
 * per preset, rows L1/L2/DRAM, "x" where a preset has no such level.
 */
void
table1View(std::ostream &os, const Records &records)
{
    const std::vector<std::string> units{"L1 D$", "L2 D$", "DRAM"};
    std::vector<std::string> header{"Unit"};
    std::vector<std::vector<std::string>> rows;
    for (const std::string &unit : units)
        rows.push_back({unit});
    for (const ExperimentRecord &rec : records) {
        const Table1Probe *probe = findProbe(rec);
        if (!probe)
            continue;
        if (header.back() != rec.gpu) {
            header.push_back(rec.gpu);
            for (auto &row : rows)
                row.push_back("x");
        }
        // Integral latencies print without the trailing ".0".
        const double cycles = rec.metric("pchase_cycles_per_access");
        const auto unit =
            std::find(units.begin(), units.end(), probe->unit);
        rows[static_cast<std::size_t>(unit - units.begin())].back() =
            cycles == std::round(cycles)
            ? std::to_string(static_cast<long long>(cycles))
            : formatDouble(cycles, 1);
    }
    TextTable table(header);
    for (auto &row : rows)
        table.addRow(std::move(row));
    os << "\n";
    table.print(os);
}

// ------------------------------------------------------------ serving

/** Under the saturating (highest) load the policies must differ. */
GateResult
servingP99Spread(const Records &records)
{
    double heavy = 0.0;
    for (const ExperimentRecord &rec : records)
        heavy = std::max(heavy, std::stod(param(rec, "load")));
    std::set<double> p99s;
    for (const ExperimentRecord &rec : records) {
        if (std::stod(param(rec, "load")) == heavy)
            p99s.insert(rec.metric("serving.p99_latency"));
    }
    return {p99s.size() >= 2,
            std::to_string(p99s.size()) +
                " distinct p99 latencies under load " +
                formatDouble(heavy, 0) + " (need >= 2)"};
}

// --------------------------------------------------------------- DRAM

bool
loadedDdr(const ExperimentRecord &rec)
{
    return rec.workload == "vecadd" &&
        overrideOf(rec, "mem.dram.model") == "ddr";
}

/** The ddr model must visibly move the loaded breakdown. */
BenchGate
firstLoadedDdrAbove(std::string name, std::string metric)
{
    return {name, [metric](const Records &records) {
                for (const ExperimentRecord &rec : records) {
                    if (loadedDdr(rec))
                        return GateResult{
                            rec.metric(metric) > 0.0,
                            metric + " = " +
                                formatDouble(rec.metric(metric), 2) +
                                " on " + cellKey(rec) + " (need > 0)"};
                }
                return GateResult{false, "no loaded ddr cell"};
            }};
}

GateResult
gridSplitsLatency(const Records &records)
{
    std::set<double> latencies;
    for (const ExperimentRecord &rec : records) {
        if (loadedDdr(rec))
            latencies.insert(rec.metric("mean_load_latency"));
    }
    return {latencies.size() >= 2,
            std::to_string(latencies.size()) +
                " distinct mean load latencies over the (map, "
                "mshr.banks) grid (need >= 2)"};
}

// ---------------------------------------------------- contributors

void
contributorsView(std::ostream &os, const Records &records)
{
    TextTable table({"workload", "correct", "requests", "#1 stage",
                     "#2 stage", "#1 %", "#2 %"});
    for (const ExperimentRecord &rec : records) {
        // Rank the stages by their share of aggregate fetch latency.
        std::vector<std::pair<std::string, double>> stages;
        const std::string prefix = "stage_pct.";
        for (const auto &[key, value] : rec.metrics) {
            if (key.rfind(prefix, 0) == 0)
                stages.emplace_back(key.substr(prefix.size()), value);
        }
        std::stable_sort(stages.begin(), stages.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        table.addRow({rec.workload, rec.correct ? "yes" : "NO",
                      formatDouble(rec.metric("requests"), 0),
                      stages[0].first, stages[1].first,
                      formatDouble(stages[0].second, 1),
                      formatDouble(stages[1].second, 1)});
    }
    os << "\n";
    table.print(os);
}

// ------------------------------------------------------------- suites

std::vector<std::string>
stageColumns()
{
    std::vector<std::string> cols;
    for (std::size_t s = 0; s < kNumStages; ++s)
        cols.push_back("stage_pct." +
                       stageMetricSlug(static_cast<Stage>(s)));
    return cols;
}

/** One cell per registry workload under each @p key value. */
std::vector<BenchSweep>
everyWorkloadUnder(const std::string &key,
                   const std::vector<std::string> &values)
{
    std::vector<BenchSweep> sweeps;
    for (const std::string &v : values) {
        for (const std::string &name :
             WorkloadRegistry::instance().names())
            sweeps.push_back({spec("gf100-sim", name, {},
                                   {key + "=" + v})});
    }
    return sweeps;
}

std::vector<BenchSuite>
buildSuites()
{
    std::vector<BenchSuite> suites;

    // --------------------------------------------------- paper views
    std::vector<BenchSweep> table1;
    for (const Table1Probe &p : table1Probes())
        table1.push_back({p.spec});
    suites.push_back({
        .name = "table1",
        .title = "Table I: latencies of memory loads through the "
                 "global memory pipeline (pchase; cycles in the hot "
                 "clock domain)",
        .sweeps = table1,
        .columns = {"pchase_cycles_per_access"},
        .gates = {{"table1_within_10pct", table1WithinTolerance}},
        .view = table1View,
    });

    std::vector<BenchSweep> fig1{
        {spec("gf100-sim", "bfs", {"kind=rmat", "scale=14", "degree=8"})}};
    for (const std::string &preset : configNames())
        fig1.push_back(
            {spec(preset, "bfs", {"kind=rmat", "scale=12", "degree=8"})});
    suites.push_back({
        .name = "fig1",
        .title = "Figure 1: per-bucket breakdown of memory fetch "
                 "latency into pipeline stages (BFS RMAT scale 14 on "
                 "gf100-sim, then scale 12 on every preset)",
        .sweeps = fig1,
        .columns = stageColumns(),
        .note = "expected shape (paper): left buckets are pure SM "
                "Base (L1 hits); long-latency buckets are dominated "
                "by the L1->ICNT queue and DRAM queue-to-scheduled "
                "arbitration.",
        .report = "fig1",
    });

    suites.push_back({
        .name = "fig2",
        .title = "Figure 2: exposed vs hidden global load latency "
                 "(BFS RMAT scale 14 on gf100-sim)",
        .sweeps = {{spec("gf100-sim", "bfs",
                         {"kind=rmat", "scale=14", "degree=8"})}},
        .note = "expected shape (paper): the exposed fraction is "
                "significant, sometimes close to 100%, and more "
                "than 50% for most buckets.",
        .report = "fig2",
    });

    // ------------------------------------------------- clock domains
    // gf106 shrunk to 4 SMs / 2 partitions.
    const std::vector<std::string> small{"numSms=4", "numPartitions=2",
                                         "deviceMemBytes=67108864"};
    auto with = [](std::vector<std::string> base,
                   std::vector<std::string> extra) {
        base.insert(base.end(), extra.begin(), extra.end());
        return base;
    };
    const std::vector<std::string> bfs12{"kind=rmat", "scale=12",
                                         "degree=8"};
    const std::vector<std::string> chase{"footprintBytes=4194304",
                                         "strideBytes=512"};
    suites.push_back({
        .name = "clock-domain",
        .title = "Clock-domain ablation on gf106 (4 SMs / 2 "
                 "partitions): DRAM and ICNT clock ratios under load "
                 "(BFS), idle DRAM chase latency vs DRAM clock, and "
                 "the idle fast-forward modes on a single-warp chase",
        .sweeps =
            {{spec("gf106", "bfs", bfs12,
                   with(small, {"dramClock=2/1,1/1,2/3,1/2,1/3"})),
              {Axis::Jobs}},
             {spec("gf106", "bfs", bfs12,
                   with(small, {"icntClock=2/1,1/1,1/2"}))},
             {spec("gf106", "pchase", with(chase, {"timedAccesses=256"}),
                   with(small, {"dramClock=2/1,1/1,2/3,1/2,1/3"}))},
             {spec("gf106", "pchase", with(chase, {"timedAccesses=2048"}),
                   small),
              {Axis::IdleFastForward}}},
        .columns = with(stageColumns(), {"pchase_cycles_per_access"}),
        .note = "expected shape: slower DRAM clocks inflate the DRAM "
                "stages and the idle chase latency; fast-forward "
                "changes wall-clock (timing section), never cycles.",
    });

    // ----------------------------------------------------------- DRAM
    suites.push_back({
        .name = "dram",
        .title = "DRAM fidelity: pchase footprint ladder under both "
                 "DRAM models, and the loaded-latency (map, "
                 "mshr.banks) grid on streaming vecadd",
        .sweeps =
            {{spec("gf100-sim", "pchase",
                   {"footprintBytes=262144,2097152,8388608"},
                   {"mem.dram.model=simple,ddr", "mem.dram.map=row",
                    "mem.mshr.banks=1"})},
             {spec("gf100-sim", "vecadd", {"n=65536"},
                   {"mem.dram.model=simple", "mem.dram.map=row",
                    "mem.mshr.banks=1"})},
             {spec("gf100-sim", "vecadd", {"n=65536"},
                   {"mem.dram.model=ddr", "mem.dram.map=row,bg,xor",
                    "mem.mshr.banks=1,8"})}},
        .quick =
            {{spec("gf100-sim", "pchase", {"footprintBytes=2097152"},
                   {"mem.dram.model=simple", "mem.dram.map=row",
                    "mem.mshr.banks=1"})},
             {spec("gf100-sim", "vecadd", {"n=16384"},
                   {"mem.dram.model=simple", "mem.dram.map=row",
                    "mem.mshr.banks=1"})},
             {spec("gf100-sim", "vecadd", {"n=16384"},
                   {"mem.dram.model=ddr", "mem.dram.map=bg",
                    "mem.mshr.banks=8"})}},
        .columns = {"pchase_cycles_per_access", "dram_row_hit_pct",
                    "dram_row_conflict_pct", "dram_refresh_stall_cycles",
                    "mshr_bank_conflicts"},
        .note = "expected shape: ddr separates from simple as the "
                "chase leaves the L2 (refreshes close rows); the "
                "grid's map and MSHR banking move loaded latency.",
        .gates = {firstLoadedDdrAbove("ddr_refresh_stalls",
                                      "dram_refresh_stall_cycles"),
                  firstLoadedDdrAbove("ddr_row_conflicts",
                                      "dram_row_conflict_pct"),
                  {"grid_splits_latency", gridSplitsLatency}},
    });

    // -------------------------------------------------------- serving
    suites.push_back({
        .name = "serving",
        .title = "Multi-tenant serving: serve.mixed under every "
                 "launch-queue policy at a light and a saturating "
                 "load",
        .sweeps = {{spec("gf100-sim", "serve.mixed",
                         {"launches=10", "load=1.000000,12.000000"},
                         {"serving.policy=fifo,rr,sjf-est,fair-share"})}},
        .quick = {{spec("gf100-sim", "serve.mixed",
                        {"launches=4", "load=8.000000"},
                        {"serving.policy=fifo,sjf-est"})}},
        .columns = {"serving.p50_latency", "serving.p99_latency",
                    "serving.p999_latency", "serving.throughput_lpmc",
                    "serving.fairness_jain",
                    "serving.mean_queue_cycles",
                    "serving.mean_exec_cycles"},
        .gates = {{"p99_spread_across_policies", servingP99Spread}},
    });

    // ------------------------------------------------------- intrasim
    const std::vector<std::string> memBound{
        "numSms=2", "numPartitions=8", "sm.warpSlots=48",
        "partition.dramQueueSize=64", "deviceMemBytes=67108864",
        "engine.tickJobs=1,4"};
    const std::vector<std::string> eightSms{
        "numSms=8", "numPartitions=2", "sm.warpSlots=48",
        "engine.tickJobs=1,4"};
    suites.push_back({
        .name = "intrasim",
        .title = "Intra-simulation parallel ticking: engine.tickJobs "
                 "1 vs 4 on a memory-bound, a compute-bound and a "
                 "loop-kernel shape (wall-clock in the timing "
                 "section)",
        .sweeps =
            {{spec("gf106", "vecadd", {"n=262144"}, memBound)},
             {spec("gf106", "compute_stream", {"n=32768", "fmaDepth=192"},
                   eightSms)},
             {spec("gf106", "gemm", {"n=128"}, eightSms)}},
        .quick =
            {{spec("gf106", "vecadd", {"n=16384"}, memBound)},
             {spec("gf106", "compute_stream", {"n=4096", "fmaDepth=32"},
                   eightSms)},
             {spec("gf106", "gemm", {"n=64"}, eightSms)}},
        .gates = {{"tick_jobs_ladder_identical", sameRecordPerCell},
                  {"some_cell_sm_parallel",
                   [](const Records &records) {
                       for (const ExperimentRecord &rec : records) {
                           if (rec.metric("analysis.sm_parallel") == 1.0)
                               return GateResult{
                                   true, cellKey(rec) + " is sm-parallel"};
                       }
                       return GateResult{false, "no sm-parallel cell"};
                   }}},
    });

    // ------------------------------------------------------ ablations
    suites.push_back({
        .name = "atomics",
        .title = "Atomic contention sweep (gf100-sim histogram)",
        .sweeps = {{spec("gf100-sim", "histogram",
                         {"n=16384", "bins=2,8,32,128,512,4096"})}},
        .note = "expected shape: fewer bins concentrate RMWs on hot "
                "L2 lines; latency and runtime fall as bins spread.",
    });

    suites.push_back({
        .name = "coalescing",
        .title = "Coalescing ablation (gf100-sim): naive vs tiled "
                 "transpose",
        .sweeps = {{spec("gf100-sim", "transpose_naive", {"n=128,256"})},
                   {spec("gf100-sim", "transpose_tiled", {"n=128,256"})}},
        .columns = {"requests"},
        .note = "expected shape: the tiled variant finishes in fewer "
                "cycles with fewer memory requests per instruction.",
    });

    suites.push_back({
        .name = "dram-sched",
        .title = "DRAM scheduler ablation (gf100-sim): FCFS vs FR-FCFS",
        .sweeps = everyWorkloadUnder("partition.sched",
                                     {"fcfs", "frfcfs"}),
        .columns = {"mean_dram_queue_wait", "dram_row_hit_pct"},
        .note = "expected shape: FR-FCFS raises the row-hit rate and "
                "cuts DRAM queue wait / total runtime on "
                "bandwidth-heavy workloads.",
    });

    suites.push_back({
        .name = "icnt-latency",
        .title = "Interconnect latency ablation (gf100-sim)",
        .sweeps = {{spec("gf100-sim", "bfs", {"scale=13"},
                         {"icntLatency=10,20,40,80,160"})},
                   {spec("gf100-sim", "compute_stream",
                         {"n=32768", "fmaDepth=32"},
                         {"icntLatency=10,20,40,80,160"})}},
        .note = "expected shape: BFS runtime degrades steeply with "
                "added latency (exposed); the compute-heavy stream "
                "degrades far less (hidden).",
    });

    // The Fermi -> Kepler -> Maxwell global-memory L1 retreat.
    std::vector<BenchSweep> l1;
    for (const auto &[workload, params] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"bfs", {"scale=13"}},
             {"spmv", {"rows=4096"}},
             {"stencil2d", {"width=256", "height=128"}}}) {
        for (const std::vector<std::string> &policy :
             std::vector<std::vector<std::string>>{
                 {"sm.l1Enabled=true", "sm.l1CachesGlobal=true"},
                 {"sm.l1Enabled=true", "sm.l1CachesGlobal=false"},
                 {"sm.l1Enabled=false"}})
            l1.push_back({spec("gf100-sim", workload, params, policy)});
    }
    suites.push_back({
        .name = "l1-policy",
        .title = "L1 policy ablation (gf100-sim): Fermi (L1 caches "
                 "global), Kepler (local only), Maxwell (no L1)",
        .sweeps = l1,
        .columns = {"l1_hit_pct"},
        .note = "expected shape: removing the L1 from the global path "
                "raises mean load latency (every access starts at "
                "the L2, exactly Table I's Kepler/Maxwell "
                "observation).",
    });

    // Block size and blocks per SM follow the warp count so blocks
    // fit the shrunken SM.
    std::vector<BenchSweep> hiding;
    for (const auto &[workload, params] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"vecadd", {"n=65536"}},
             {"bfs", {"kind=rmat", "scale=13"}}}) {
        for (const unsigned warps : {1u, 2u, 4u, 8u, 16u, 32u, 48u}) {
            const unsigned tpb = std::min(256u, warps * kWarpSize);
            hiding.push_back({spec(
                "gf100-sim", workload,
                with(params, {"threadsPerBlock=" + std::to_string(tpb)}),
                {"sm.warpSlots=" + std::to_string(warps),
                 "sm.maxBlocksPerSm=" +
                     std::to_string(std::max(1u, warps * kWarpSize / tpb))})});
        }
    }
    suites.push_back({
        .name = "latency-hiding",
        .title = "Latency hiding vs warps per SM (gf100-sim)",
        .sweeps = hiding,
        .note = "expected shape: exposure falls and IPC rises with "
                "more warps; vecadd hides almost everything at high "
                "occupancy while BFS stays substantially exposed (the "
                "paper's headline finding).",
    });

    suites.push_back({
        .name = "loaded-latency",
        .title = "Loaded latency: streaming load latency vs offered "
                 "load, 1..128 blocks of 256 threads (gf100-sim)",
        .sweeps = {{spec("gf100-sim", "vecadd",
                         {"n=256,512,1024,2048,4096,8192,16384,32768",
                          "threadsPerBlock=256"})}},
        .columns = {"requests", "stage_pct.l1toicnt",
                    "stage_pct.dram_qtosch"},
        .note = "expected shape: latency starts near the idle DRAM "
                "value and grows as queueing/arbitration components "
                "inflate under load.",
    });

    suites.push_back({
        .name = "warp-sched",
        .title = "Warp scheduler ablation (gf100-sim): LRR vs GTO",
        .sweeps = everyWorkloadUnder("sm.schedPolicy", {"lrr", "gto"}),
    });

    std::vector<BenchSweep> every;
    for (const std::string &name : WorkloadRegistry::instance().names())
        every.push_back({spec("gf100-sim", name, {})});
    suites.push_back({
        .name = "workload-contributors",
        .title = "Per-workload top latency contributors (gf100-sim)",
        .sweeps = every,
        .note = "paper claim: queueing (l1toicnt) and DRAM arbitration "
                "(dram_qtosch) dominate long latencies across "
                "workloads.",
        .view = contributorsView,
    });

    // ---------------------------------------------------- determinism
    // Records must not depend on --jobs, engine.tickJobs (8
    // oversubscribes a 4-core host, so worker scheduling is
    // adversarial) or the fast-forward mode. The shapes are where a
    // reordered tick would surface first: the seed-golden BFS, a
    // warp-scheduler-heavy compute stream, the Table-I chase
    // ladder, non-unity clock ratios, the ddr bank state machine with
    // banked MSHRs, and concurrent serving grids, whose dispatch
    // depends on which cycles the dispatcher and scheduler tick.
    const std::vector<std::string> ddr{
        "numSms=8", "numPartitions=4", "mem.dram.model=ddr",
        "mem.dram.map=row,bg,xor", "mem.mshr.banks=1,8"};
    suites.push_back({
        .name = "determinism",
        .title = "Determinism: records invariant under --jobs, "
                 "engine.tickJobs and idleFastForward",
        .sweeps =
            {{spec("gf106", "bfs", {"nodes=1024,4096"},
                   {"sm.warpSlots=8,16,32"}),
              {Axis::Jobs}},
             {spec("gk104", "pchase",
                   {"footprintBytes=16384,131072,2097152"}),
              {Axis::Jobs, Axis::TickJobs}},
             {spec("gf106", "bfs", {"nodes=1024,4096"}),
              {Axis::Jobs, Axis::IdleFastForward}},
             {spec("gf106", "bfs", {"nodes=1024,4096"},
                   {"sm.warpSlots=8,16", "numPartitions=4"}),
              {Axis::TickJobs}},
             {spec("gf106", "compute_stream",
                   {"n=16384,32768", "fmaDepth=96"},
                   {"numSms=8", "numPartitions=2", "sm.warpSlots=48"}),
              {Axis::TickJobs}},
             {spec("gf106", "vecadd", {"n=65536"},
                   {"numSms=8", "sm.warpSlots=48"}),
              {Axis::TickJobs}},
             {spec("gf106", "bfs", {"nodes=1024"},
                   {"dramClock=1/3", "icntClock=2/1",
                    "numPartitions=4"}),
              {Axis::TickJobs}},
             {spec("gf106", "vecadd", {"n=32768"}, ddr),
              {Axis::Jobs, Axis::TickJobs}},
             {spec("gf100-sim", "serve.mixed",
                   {"tenants=3", "launches=6", "load=6"},
                   {"serving.policy=fifo,rr,fair-share"}),
              {Axis::Jobs, Axis::TickJobs, Axis::IdleFastForward}}},
    });

    return suites;
}

// ------------------------------------------------------------ harness

struct CellTiming
{
    std::size_t cell;
    std::string axis; ///< the invariance run, empty for the records
    double wallMs;
    std::uint64_t steps;
    std::uint64_t skippedCycles;
};

const std::vector<BenchSweep> &
sweepsOf(const BenchSuite &suite, bool quick)
{
    return quick && !suite.quick.empty() ? suite.quick : suite.sweeps;
}

std::vector<ExperimentSpec>
expandCells(const std::vector<BenchSweep> &sweeps,
            const BenchOptions &opts)
{
    std::vector<ExperimentSpec> cells;
    for (const BenchSweep &sweep : sweeps) {
        for (ExperimentSpec cell : expandSweep(sweep.spec)) {
            if (opts.tickJobs) {
                cell.overrides.push_back(
                    "engine.tickJobs=" + std::to_string(*opts.tickJobs));
            }
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

/** Run @p cells; append their timing under @p axis. */
std::vector<JobOutcome>
runCells(const std::vector<ExperimentSpec> &cells, std::size_t jobs,
         const std::string &axis, std::size_t first_cell,
         std::vector<CellTiming> &timing, std::ostream &err,
         const std::string &report = {},
         std::vector<std::string> *reports = nullptr)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> engine(
        cells.size());
    auto inspect = [&](std::size_t i, Gpu &gpu,
                       const ExperimentRecord &rec) {
        engine[i] = {gpu.engine().steps(), gpu.engine().skippedCycles()};
        if (reports && !report.empty())
            (*reports)[i] = renderReport(gpu, rec, report, 48, false);
    };
    auto outcomes = ParallelRunner(jobs).run(cells, inspect);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        timing.push_back({first_cell + i, axis, outcomes[i].wallMs,
                          engine[i].first, engine[i].second});
        if (outcomes[i].failed) {
            err << "cell " << first_cell + i << " (" << cells[i].gpu
                << " x " << cells[i].workload
                << (axis.empty() ? "" : ", " + axis)
                << "): " << outcomes[i].error << "\n";
        }
    }
    return outcomes;
}

const char *
axisName(Axis axis)
{
    switch (axis) {
      case Axis::Jobs: return "jobs";
      case Axis::TickJobs: return "engine.tickJobs";
      default: return "idleFastForward";
    }
}

std::vector<std::string>
axisValues(Axis axis)
{
    switch (axis) {
      case Axis::Jobs: return {"1", "4"};
      case Axis::TickJobs: return {"1", "8"};
      default: return {"off", "perDomain"};
    }
}

/**
 * Re-run @p sweep (its cells start at @p first_cell) at every
 * combination of its axes' values and gate each axis.
 */
void
checkInvariance(const BenchSweep &sweep, std::size_t first_cell,
                const BenchOptions &opts, std::vector<CellTiming> &timing,
                GateResults &gates,
                std::ostream &err)
{
    const std::vector<Axis> &axes = sweep.invariantUnder;
    if (axes.empty())
        return;
    const std::vector<ExperimentSpec> base = expandCells({sweep}, opts);
    std::map<std::vector<std::size_t>, std::pair<std::string, Records>>
        runs;
    std::vector<std::size_t> idx(axes.size(), 0);
    while (true) {
        std::vector<ExperimentSpec> cells = base;
        std::size_t jobs = resolveJobs(opts.jobs);
        std::string label;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string value = axisValues(axes[a])[idx[a]];
            const std::string setting =
                std::string(axisName(axes[a])) + "=" + value;
            label += label.empty() ? "" : " ";
            label += setting;
            if (axes[a] == Axis::Jobs) {
                jobs = std::stoul(value);
                continue;
            }
            for (ExperimentSpec &cell : cells)
                cell.overrides.push_back(setting);
        }
        Records records;
        for (const JobOutcome &o :
             runCells(cells, jobs, label, first_cell, timing, err)) {
            if (!o.failed)
                records.push_back(o.record);
        }
        runs[idx] = {label, std::move(records)};

        std::size_t a = axes.size();
        while (a > 0 && ++idx[a - 1] == axisValues(axes[a - 1]).size())
            idx[--a] = 0;
        if (a == 0)
            break;
    }

    const std::string what = sweep.spec.gpu + " " + sweep.spec.workload +
        " " + joined(sweep.spec.params) +
        (sweep.spec.overrides.empty() ? "" : " ") +
        joined(sweep.spec.overrides);
    for (std::size_t a = 0; a < axes.size(); ++a) {
        GateResult result{true, std::to_string(runs.size()) +
                                    " runs of " +
                                    std::to_string(base.size()) +
                                    " cells agree"};
        for (const auto &[key, run] : runs) {
            if (key[a] == 0)
                continue;
            std::vector<std::size_t> ref = key;
            ref[a] = 0;
            const auto &[ref_label, ref_records] = runs.at(ref);
            const GateResult cmp =
                compareRecords(ref_records, run.second,
                               axes[a] == Axis::IdleFastForward);
            if (!cmp.ok) {
                result = {false, ref_label + " vs " + run.first + ": " +
                                     cmp.detail};
                break;
            }
        }
        gates.emplace_back(std::string("invariant[") + axisName(axes[a]) +
                               "]: " + what,
                           result);
    }
}

std::string
renderTrailer(const BenchSuite &suite, bool quick,
              const std::vector<CellTiming> &timing,
              const GateResults &gates,
              bool gates_ok)
{
    std::ostringstream os;
    os << ",\n  \"suite\": " << jsonQuote(suite.name)
       << ",\n  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"timing\": [";
    for (std::size_t i = 0; i < timing.size(); ++i) {
        const CellTiming &t = timing[i];
        os << (i ? ",\n" : "\n") << "    {\"cell\": " << t.cell
           << ", \"axis\": " << jsonQuote(t.axis)
           << ", \"wall_ms\": " << formatDouble(t.wallMs, 2)
           << ", \"steps\": " << t.steps
           << ", \"skipped_cycles\": " << t.skippedCycles << "}";
    }
    os << "\n  ],\n  \"gates\": [";
    for (std::size_t i = 0; i < gates.size(); ++i) {
        os << (i ? ",\n" : "\n") << "    {\"name\": "
           << jsonQuote(gates[i].first) << ", \"ok\": "
           << (gates[i].second.ok ? "true" : "false")
           << ", \"detail\": " << jsonQuote(gates[i].second.detail)
           << "}";
    }
    os << "\n  ],\n  \"gates_ok\": " << (gates_ok ? "true" : "false");
    return os.str();
}

} // namespace

const std::vector<BenchSuite> &
benchSuites()
{
    static const std::vector<BenchSuite> suites = buildSuites();
    return suites;
}

std::vector<ExperimentSpec>
suiteCells(const BenchSuite &suite, bool quick)
{
    return expandCells(sweepsOf(suite, quick), {});
}

GateResults
evaluateGates(const BenchSuite &suite, const Records &records, bool quick)
{
    GateResults gates{{"all_correct", allCorrect(records)}};
    if (!quick) {
        for (const BenchGate &gate : suite.gates)
            gates.emplace_back(gate.name, gate.check(records));
    }
    return gates;
}

GateResult
compareRecords(const Records &a, const Records &b, bool cycles_only)
{
    if (a.size() != b.size()) {
        return {false, std::to_string(a.size()) + " vs " +
                           std::to_string(b.size()) + " records"};
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (cycles_only ? a[i].cycles != b[i].cycles
                        : render({a[i]}) != render({b[i]})) {
            return {false, "cell " + std::to_string(i) + " (" +
                               cellKey(a[i]) + ") " +
                               (cycles_only ? "cycles differ: " +
                                        std::to_string(a[i].cycles) +
                                        " vs " +
                                        std::to_string(b[i].cycles)
                                            : "record differs")};
        }
    }
    return {true, std::to_string(a.size()) +
                      (cycles_only ? " cells, cycles identical"
                                   : " records byte-identical")};
}

int
runBench(const BenchSuite &suite, const BenchOptions &opts,
         std::ostream &out, std::ostream &err)
{
    const std::vector<BenchSweep> &sweeps = sweepsOf(suite, opts.quick);
    const std::vector<ExperimentSpec> cells = expandCells(sweeps, opts);

    MultiSink sinks;
    const std::vector<JsonSink *> docs = addOutputs(
        sinks, out, opts.jsonOuts, opts.csvOuts, "gpulat.bench.v1");
    // Human-readable output must not corrupt a document on stdout.
    const bool human =
        std::count(opts.jsonOuts.begin(), opts.jsonOuts.end(), "-") +
            std::count(opts.csvOuts.begin(), opts.csvOuts.end(), "-") ==
        0;
    if (human) {
        sinks.add(std::make_unique<TextTableSink>(out, suite.columns));
        out << suite.title << (opts.quick ? " [quick]" : "") << "\n\n";
    }

    std::vector<CellTiming> timing;
    std::vector<std::string> reports(cells.size());
    const auto outcomes =
        runCells(cells, resolveJobs(opts.jobs), "", 0, timing, err,
                 human ? suite.report : "", &reports);
    Records records;
    bool anyFailed = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        anyFailed |= outcomes[i].failed;
        if (outcomes[i].failed)
            continue;
        out << reports[i];
        records.push_back(outcomes[i].record);
        sinks.write(outcomes[i].record);
    }

    GateResults gates = evaluateGates(suite, records, opts.quick);
    std::size_t first_cell = 0;
    for (const BenchSweep &sweep : sweeps) {
        checkInvariance(sweep, first_cell, opts, timing, gates, err);
        first_cell += expandSweep(sweep.spec).size();
    }

    bool gates_ok = !anyFailed;
    for (const auto &[name, result] : gates)
        gates_ok &= result.ok;
    const std::string trailer =
        renderTrailer(suite, opts.quick, timing, gates, gates_ok);
    for (JsonSink *doc : docs)
        doc->setTrailer(trailer);
    sinks.finish();

    if (human) {
        if (suite.view)
            suite.view(out, records);
        if (!suite.note.empty())
            out << "\n" << suite.note << "\n";
        out << "\ngates:\n";
        for (const auto &[name, result] : gates) {
            out << "  " << (result.ok ? "ok    " : "FAILED") << " "
                << name << ": " << result.detail << "\n";
        }
        out << (gates_ok ? "PASSED" : "FAILED") << "\n";
    }
    if (anyFailed)
        return 2;
    return gates_ok ? 0 : 1;
}

std::string
renderReport(Gpu &gpu, const ExperimentRecord &rec,
             const std::string &kind, std::size_t buckets, bool stats)
{
    std::ostringstream ros;
    ros << "=== " << rec.gpu << " x " << rec.workload;
    for (const auto &[k, v] : rec.overrides)
        ros << " " << k << "=" << v;
    ros << " ===\n";
    const bool all = kind == "all";
    if (kind == "summary" || all) {
        computeSummary(gpu.latencies().traces()).print(ros);
        ros << "\n";
    }
    if (kind == "fig1" || all) {
        computeBreakdown(gpu.latencies().traces(), buckets)
            .printChart(ros);
        ros << "\n";
    }
    if (kind == "fig2" || all) {
        computeExposure(gpu.exposure().records(), buckets)
            .printChart(ros);
        ros << "\n";
    }
    if (stats)
        gpu.stats().dump(ros);
    return ros.str();
}

} // namespace gpulat
