/**
 * @file
 * The experiment runner behind the `gpulat` CLI and its bench
 * suites: a declarative ExperimentSpec (preset + overrides +
 * workload + params) is resolved through the config-override layer
 * and the WorkloadRegistry, simulated, and collapsed into one
 * schema-stable ExperimentRecord. Sweeps are specs whose values
 * carry comma-separated lists; expandSweep() takes the cartesian
 * product.
 */

#ifndef GPULAT_API_EXPERIMENT_HH
#define GPULAT_API_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "api/stat_sink.hh"
#include "gpu/gpu.hh"
#include "latency/stages.hh"

namespace gpulat {

/**
 * The stable metric-key slug of a pipeline stage:
 * rec.metrics["stage_pct." + stageMetricSlug(s)] is that stage's
 * share of aggregate fetch latency ("DRAM(QtoSch)" -> "dram_qtosch").
 */
std::string stageMetricSlug(Stage stage);

/** One experiment, fully described by strings. */
struct ExperimentSpec
{
    std::string gpu = "gf100-sim";       ///< preset name/alias
    std::string workload;                ///< registry name
    std::vector<std::string> params;     ///< "key=value"
    std::vector<std::string> overrides;  ///< "dotted.path=value"
    /** Shrink workload defaults ([0,1], 1 = bench-sized); explicit
     *  params win over scaled defaults. */
    double scale = 1.0;
};

/** Preset + overrides -> concrete config (fatal on bad input). */
GpuConfig buildConfig(const ExperimentSpec &spec);

/**
 * Run one experiment: build the config, construct the workload,
 * simulate, and collect the record. @p inspect, if set, runs after
 * the simulation with the still-live Gpu (for extra reports that
 * need raw traces, e.g. Figure 1/2 charts).
 */
ExperimentRecord runExperiment(
    const ExperimentSpec &spec,
    const std::function<void(Gpu &, const ExperimentRecord &)>
        &inspect = {});

/**
 * Collapse a finished run on @p gpu into a record. Reads counters
 * via StatRegistry::counterSinceEpoch(), so benches reusing one Gpu
 * across experiments get per-experiment values as long as they
 * markEpoch() between runs.
 */
ExperimentRecord collectRecord(Gpu &gpu,
                               const ExperimentSpec &spec,
                               const WorkloadResult &result);

/**
 * Expand comma-separated values in params/overrides into the
 * cartesian product of single-valued specs, varying the *last*
 * listed axis fastest. `--set sm.warpSlots=1,2,4` yields 3 specs.
 */
std::vector<ExperimentSpec> expandSweep(const ExperimentSpec &spec);

} // namespace gpulat

#endif // GPULAT_API_EXPERIMENT_HH
