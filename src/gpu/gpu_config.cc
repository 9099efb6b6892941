#include "gpu/gpu_config.hh"

#include <cctype>

#include "common/log.hh"

namespace gpulat {

GpuConfig
makeGF106()
{
    GpuConfig cfg;
    cfg.name = "gf106";
    cfg.numSms = 4;
    cfg.numPartitions = 2;

    cfg.sm.warpSlots = 48;
    cfg.sm.numSchedulers = 2;
    cfg.sm.maxBlocksPerSm = 8;

    // Idle-path calibration targets (Table I, Fermi column):
    //   L1 hit 45, L2 hit 310, DRAM 685 measured cycles.
    cfg.sm.smBaseLatency = 12;
    cfg.sm.l1HitLatency = 33;
    cfg.sm.l1MissLatency = 4;
    cfg.sm.l1Enabled = true;
    cfg.sm.l1CachesGlobal = true;
    cfg.sm.l1CachesLocal = true;
    cfg.sm.l1Cache.capacityBytes = 16 * 1024;
    cfg.sm.l1Cache.ways = 4;

    cfg.icntLatency = 40;

    cfg.partition.ropLatency = 24;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 186;
    cfg.partition.l2MissLatency = 30;
    cfg.partition.l2Cache.capacityBytes = 128 * 1024;
    cfg.partition.l2Cache.ways = 8;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 60;
    cfg.partition.dram.timing.tRP = 60;
    cfg.partition.dram.timing.tCAS = 60;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 457;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGT200()
{
    GpuConfig cfg;
    cfg.name = "gt200";
    cfg.numSms = 4;
    cfg.numPartitions = 4;

    cfg.sm.warpSlots = 32;
    cfg.sm.numSchedulers = 1;
    cfg.sm.maxBlocksPerSm = 8;

    // Tesla: global/local accesses are uncached; the only plateau is
    // DRAM at ~440 cycles.
    cfg.sm.l1Enabled = false;
    cfg.sm.smBaseLatency = 14;
    cfg.sm.l1MissLatency = 6;

    cfg.icntLatency = 48;

    cfg.partition.l2Enabled = false;
    cfg.partition.ropLatency = 24;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 50;
    cfg.partition.dram.timing.tRP = 50;
    cfg.partition.dram.timing.tCAS = 50;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 236;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGK104()
{
    GpuConfig cfg;
    cfg.name = "gk104";
    cfg.numSms = 8;
    cfg.numPartitions = 4;

    cfg.sm.warpSlots = 64;
    cfg.sm.numSchedulers = 4;
    cfg.sm.maxBlocksPerSm = 16;

    // Kepler: the L1 serves *only* local accesses (Table I: L1 30
    // via local chase); global loads go straight to the L2 (175) /
    // DRAM (300).
    cfg.sm.l1Enabled = true;
    cfg.sm.l1CachesGlobal = false;
    cfg.sm.l1CachesLocal = true;
    cfg.sm.smBaseLatency = 8;
    cfg.sm.l1HitLatency = 22;
    cfg.sm.l1MissLatency = 3;
    cfg.sm.l1Cache.capacityBytes = 16 * 1024;
    cfg.sm.l1Cache.ways = 4;

    cfg.icntLatency = 24;

    cfg.partition.ropLatency = 16;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 96;
    cfg.partition.l2MissLatency = 16;
    cfg.partition.l2Cache.capacityBytes = 128 * 1024;
    cfg.partition.l2Cache.ways = 8;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 24;
    cfg.partition.dram.timing.tRP = 24;
    cfg.partition.dram.timing.tCAS = 24;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 173;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGM107()
{
    GpuConfig cfg;
    cfg.name = "gm107";
    cfg.numSms = 5;
    cfg.numPartitions = 2;

    cfg.sm.warpSlots = 64;
    cfg.sm.numSchedulers = 4;
    cfg.sm.maxBlocksPerSm = 16;

    // Maxwell: the classic L1 data cache is gone entirely; both
    // global and local start at the L2 (194) / DRAM (350), slower
    // than Kepler on every level.
    cfg.sm.l1Enabled = false;
    cfg.sm.smBaseLatency = 10;
    cfg.sm.l1MissLatency = 4;

    cfg.icntLatency = 28;

    cfg.partition.ropLatency = 18;
    cfg.partition.l2QueueLatency = 2;
    cfg.partition.l2HitLatency = 102;
    cfg.partition.l2MissLatency = 18;
    cfg.partition.l2Cache.capacityBytes = 1024 * 1024;
    cfg.partition.l2Cache.ways = 16;
    cfg.partition.returnQueueLatency = 2;

    cfg.partition.dram.timing.tRCD = 30;
    cfg.partition.dram.timing.tRP = 30;
    cfg.partition.dram.timing.tCAS = 30;
    cfg.partition.dram.timing.tBurst = 4;
    cfg.partition.dram.timing.tExtra = 201;
    cfg.partition.dramCmdInterval = 2;

    return cfg;
}

GpuConfig
makeGF100Sim()
{
    // Start from the calibrated Fermi latencies and scale the
    // machine up to the GPGPU-Sim GF100 configuration the paper
    // used: 15 SMs, 48 warps/SM, 6 memory partitions, FR-FCFS.
    GpuConfig cfg = makeGF106();
    cfg.name = "gf100-sim";
    cfg.numSms = 15;
    cfg.numPartitions = 6;
    cfg.sm.warpSlots = 48;
    cfg.sm.schedPolicy = SchedPolicy::GTO;
    cfg.partition.sched = DramSchedPolicy::FRFCFS;
    cfg.partition.dramQueueSize = 64;
    cfg.deviceMemBytes = 512ull * 1024 * 1024;
    return cfg;
}

const std::vector<std::string> &
configNames()
{
    static const std::vector<std::string> names{
        "gt200", "gf106", "gk104", "gm107", "gf100-sim"};
    return names;
}

namespace {

/** Lowercase with '-'/'_' stripped, so CLI spellings like
 *  "gf100sim" and "GF100-sim" resolve to the same preset. */
std::string
canonicalName(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == '-' || c == '_')
            continue;
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

} // namespace

GpuConfig
makeConfig(const std::string &name)
{
    const std::string wanted = canonicalName(name);
    if (wanted == "gt200") return makeGT200();
    if (wanted == "gf106") return makeGF106();
    if (wanted == "gk104") return makeGK104();
    if (wanted == "gm107") return makeGM107();
    if (wanted == "gf100sim") return makeGF100Sim();
    std::string known;
    for (const auto &n : configNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown GPU config '", name, "' (known: ", known, ")");
}

} // namespace gpulat
