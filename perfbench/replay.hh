/**
 * @file
 * Layer costs the driver cannot time around a call of the run it
 * measures, because the call happens inside another public call:
 * the launch-time SM-parallel analysis (inside Gpu::launch) and the
 * FR-FCFS pick (inside the partition's DRAM tick). Each is replayed
 * from outside on inputs shaped like the cell's own.
 */

#ifndef GPULAT_PERFBENCH_REPLAY_HH
#define GPULAT_PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "api/experiment.hh"
#include "api/param_map.hh"

namespace perfbench {

/** Analysis replay of one cell. */
struct AnalysisReplay
{
    double ms = 0.0;        ///< summed over the cell's launches
    bool known = false;     ///< the workload's launch shapes are known
    bool lastSafe = false;  ///< verdict of the last replayed launch
};

/**
 * Replay analyzeSmParallelSafety() at each launch shape of the
 * cell's workload (kernel, grid, block, parameters laid out by the
 * same bump allocation order the workload uses) and charge each
 * shape's median time once per launch it stands for.
 */
AnalysisReplay replayAnalysis(const gpulat::ExperimentSpec &spec,
                              const gpulat::ExperimentRecord &rec);

/**
 * Median ns of one pickDramRequest() call on a
 * partition.dramQueueSize-deep FR-FCFS queue whose line addresses
 * are spread over the @p allocated bytes the cell used.
 */
double replayFrfcfsPickNs(const gpulat::GpuConfig &cfg,
                          std::uint64_t allocated);

/** Effective workload parameters: scaled defaults under the
 *  spec's explicit assignments (what runExperiment() uses). */
gpulat::ParamMap effectiveParams(const gpulat::ExperimentSpec &spec);

} // namespace perfbench

#endif // GPULAT_PERFBENCH_REPLAY_HH
