/**
 * @file
 * Top-level GPU device: owns the SMs, interconnect and memory
 * partitions, and drives them through a TickEngine with four clock
 * domains (core, icnt, L2, DRAM). Host code allocates device
 * memory, copies data, launches kernels and reads the
 * collectors/statistics afterwards.
 *
 * Every launch is a grid on a set of SMs: beginGrid() validates it
 * and binds its SMs, the dispatcher component hands out its blocks,
 * run() steps the engine until the caller's work is done and the
 * device has drained, and retireGrid() frees the SMs. launch() is
 * that sequence for one grid on every SM; the serving layer keeps
 * several grids resident on disjoint SM sets.
 *
 * Component layering (registration order = intra-cycle tick order):
 *
 *   icnt : reqNet, respNet
 *   l2   : reqNet -> ROP ports, partition L2 sides
 *   dram : partition DRAM sides
 *   icnt : partition -> respNet port
 *   core : respNet -> SM port, SMs, block dispatcher
 *
 * At the default 1:1:1:1 ratios this replays the original
 * hand-ordered tick() bit-for-bit; non-unity ratios slow or speed
 * whole domains. Under per-domain fast-forward each component
 * sleeps until its own next-event promise, and the engine jumps
 * windows in which every component sleeps.
 */

#ifndef GPULAT_GPU_GPU_HH
#define GPULAT_GPU_GPU_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "engine/tick_engine.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_analysis.hh"
#include "gpu/ports.hh"
#include "icnt/crossbar.hh"
#include "isa/kernel.hh"
#include "latency/collector.hh"
#include "mem/device_memory.hh"
#include "mem/partition.hh"
#include "simt/core.hh"

namespace gpulat {

/** What a kernel launch reports back. */
struct LaunchResult
{
    Cycle cycles = 0;        ///< wall-clock cycles of this launch
    Cycle startCycle = 0;
    Cycle endCycle = 0;
    std::uint64_t instructions = 0; ///< warp instructions issued
};

class Gpu
{
  public:
    explicit Gpu(GpuConfig config);

    /** @name Host-side memory API @{ */
    DeviceMemory &memory() { return dmem_; }
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 256);
    void copyToDevice(Addr dst, const void *src, std::uint64_t bytes);
    void copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const;
    /** @} */

    /**
     * Launch a kernel on every SM and simulate to completion
     * (drained pipelines): beginGrid(), run(), retireGrid().
     *
     * @param kernel finalized kernel.
     * @param num_blocks 1-D grid size.
     * @param threads_per_block 1-D block size (<= warpSlots * 32).
     * @param params kernel parameters (<= kMaxParams).
     */
    LaunchResult launch(const Kernel &kernel, unsigned num_blocks,
                        unsigned threads_per_block,
                        const std::vector<RegValue> &params);

    /**
     * @name Grids
     *
     * A grid is a kernel launch bound to a set of SMs. Several can
     * be resident at once on disjoint SM sets; the dispatcher
     * component dispatches up to one block per owned SM per core
     * cycle for each of them. Kernels and param vectors must
     * outlive the grid.
     * @{
     */
    using GridId = std::uint32_t;

    /**
     * Begin a grid on @p sm_ids. Rejects (FatalError) a bad shape,
     * a block that can never become resident, an empty or
     * malformed SM set, an SM owned by an active grid, and a
     * local-memory kernel beside another grid (the single backing
     * store cannot be shared). Its blocks are dispatched from the
     * next dispatcher tick on.
     */
    GridId beginGrid(const Kernel &kernel, unsigned num_blocks,
                     unsigned threads_per_block,
                     const std::vector<RegValue> &params,
                     std::vector<unsigned> sm_ids);

    /** All blocks dispatched and every owned SM idle and drained? */
    bool gridDone(GridId id) const;

    /** Release a done grid's SMs. */
    void retireGrid(GridId id);

    /**
     * Step the engine until @p finished() holds and the device has
     * drained, then settle it; returns the elapsed cycles and warp
     * instructions. The watchdog panics with a stall report after
     * engine.watchdogStallSteps performed steps in which neither
     * activitySignature() nor @p progress() (optional: work the
     * caller tracks outside the device) changed.
     */
    LaunchResult run(const std::function<bool()> &finished,
                     const std::function<std::uint64_t()> &progress,
                     const std::string &what);

    /**
     * Register @p component on the core clock after the dispatcher
     * (so a grid it begins receives blocks from the next cycle on),
     * with wake edges to and from every SM. The serving layer's
     * scheduler is such a component.
     */
    void addCoreComponent(Clocked &component);
    /** @} */

    /** @name Instrumentation @{ */
    /** SM-parallel safety verdict of the most recent grid (a
     *  diagnostic — SM cores always tick in registration order);
     *  default-constructed before any grid. */
    const SmParallelVerdict &lastVerdict() const { return verdict_; }
    StatRegistry &stats() { return stats_; }
    LatencyCollector &latencies() { return latCollector_; }
    ExposureCollector &exposure() { return expCollector_; }
    /** Engine introspection (fast-forward effectiveness, domains). */
    const TickEngine &engine() const { return engine_; }
    /** Per-device RNG, seeded from GpuConfig::seed (the `seed`
     *  override key): workload input data, arrival streams. */
    Rng &rng() { return rng_; }
    /** Watchdog progress signature: changes whenever any packet
     *  moves, any block is dispatched or any instruction issues. */
    std::uint64_t activitySignature() const;
    /** @} */

    Cycle now() const { return engine_.now(); }
    const GpuConfig &config() const { return config_; }
    SmCore &sm(unsigned i) { return *sms_[i]; }
    MemPartition &partition(unsigned i) { return *partitions_[i]; }

    /**
     * Reset experiment-visible device state between back-to-back
     * experiments in one process: invalidate all L1s/L2s, drop DRAM
     * open-row/bus state, clear the latency and exposure
     * collectors, and mark a new stat epoch (read per-experiment
     * counters via StatRegistry::counterSinceEpoch()). Requires all
     * pipelines drained; launch() guarantees that on return.
     */
    void invalidateCaches();

  private:
    /** One grid: address-stable context (SMs keep a raw pointer),
     *  owned SMs, dispatch cursor. */
    struct Grid
    {
        GridId id = 0;
        LaunchContext ctx;
        std::vector<unsigned> smIds;
        unsigned nextBlock = 0;
    };

    /**
     * The block dispatcher: up to one block per owned SM per core
     * cycle for every active grid. Each grid's rotation offset is
     * `now % n` over its n SMs, so skipped cycles (which can never
     * dispatch: no SM had room) leave later decisions unchanged in
     * every fast-forward mode.
     */
    class Dispatcher : public Clocked
    {
      public:
        explicit Dispatcher(Gpu &gpu) : gpu_(gpu) {}
        void tick(Cycle now) override;
        Cycle nextEventAt(Cycle now) const override;

      private:
        Gpu &gpu_;
    };

    /** Reject a grid its SMs could never run. */
    void validateGrid(const Kernel &kernel, unsigned num_blocks,
                      unsigned threads_per_block,
                      std::size_t num_params,
                      const std::vector<unsigned> &sm_ids) const;
    const Grid &grid(GridId id) const;
    bool allDrained() const;
    std::uint64_t instructionsIssued() const;
    /** Per-layer diagnostics for a watchdog panic; settles the
     *  engine first so idle/occupancy cycle totals are current. */
    std::string stallReport(const std::string &what);

    GpuConfig config_;
    StatRegistry stats_;
    LatencyCollector latCollector_;
    ExposureCollector expCollector_;
    DeviceMemory dmem_;

    Crossbar<MemRequest> reqNet_;
    Crossbar<MemRequest> respNet_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    std::vector<std::unique_ptr<SmCore>> sms_;

    /** @name Engine wiring @{ */
    TickEngine engine_;
    NetToPartitionPort reqEject_;
    PartitionToNetPort respInject_;
    NetToSmPort respEject_;
    Dispatcher dispatcher_;
    std::vector<std::unique_ptr<PartitionMemSide>> partMemSides_;
    std::vector<std::unique_ptr<PartitionL2Side>> partL2Sides_;
    /** @} */

    /** SM-parallel safety verdict of the most recent grid
     *  (record metrics, watchdog stall reports). */
    SmParallelVerdict verdict_;

    /** Active grids in begin order. */
    std::vector<std::unique_ptr<Grid>> grids_;
    GridId nextGridId_ = 0;

    Rng rng_;

    /** Local-memory backing store, reused across launches with the
     *  same shape so successive kernels see the same local data. */
    Addr localBase_ = kNoAddr;
    std::uint64_t localAllocThreads_ = 0;
    std::uint64_t localAllocBytes_ = 0;
};

} // namespace gpulat

#endif // GPULAT_GPU_GPU_HH
