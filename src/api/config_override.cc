#include "api/config_override.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

#include "api/param_map.hh"
#include "common/log.hh"

namespace gpulat {

ClockRatio
parseClockRatio(const std::string &text, const std::string &key)
{
    // Accept "M/D", "M:D" or a bare "M" (meaning M/1).
    auto sep = text.find('/');
    if (sep == std::string::npos)
        sep = text.find(':');
    const std::string mul_s =
        sep == std::string::npos ? text : text.substr(0, sep);
    const std::string div_s =
        sep == std::string::npos ? "1" : text.substr(sep + 1);
    const std::string what = key + " '" + text +
        "' (expected M/D, M:D or M with M,D > 0)";
    const unsigned max = std::numeric_limits<unsigned>::max();
    const std::uint64_t mul = parseUnsigned(mul_s, what, max, 10);
    const std::uint64_t div = parseUnsigned(div_s, what, max, 10);
    if (mul == 0 || div == 0)
        fatal(what, ": zero term");
    // gcd-normalize: "2/4" means the same frequency as "1/2", so it
    // must format and round-trip identically (and pass the same
    // range validation) — the parsed ratio is canonical.
    const std::uint64_t g = std::gcd(mul, div);
    return ClockRatio{static_cast<unsigned>(mul / g),
                      static_cast<unsigned>(div / g)};
}

std::string
formatClockRatio(ClockRatio ratio)
{
    return std::to_string(ratio.mul) + "/" + std::to_string(ratio.div);
}

namespace {

template <typename T>
void
parseValue(const std::string &path, const std::string &text, T &dst)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (text == "1" || text == "true" || text == "on") {
            dst = true;
        } else if (text == "0" || text == "false" || text == "off") {
            dst = false;
        } else {
            fatal(path, ": '", text, "' is not a boolean");
        }
    } else if constexpr (std::is_same_v<T, std::string>) {
        dst = text;
    } else if constexpr (std::is_same_v<T, ClockRatio>) {
        dst = parseClockRatio(text, path);
    } else if constexpr (std::is_same_v<T, IdleFastForward>) {
        if (text == "off")
            dst = IdleFastForward::Off;
        else if (text == "perDomain")
            dst = IdleFastForward::PerDomain;
        else
            fatal(path, ": '", text, "' is not off|perDomain");
    } else if constexpr (std::is_same_v<T, SchedPolicy>) {
        if (text == "lrr") dst = SchedPolicy::LRR;
        else if (text == "gto") dst = SchedPolicy::GTO;
        else fatal(path, ": '", text, "' is not lrr|gto");
    } else if constexpr (std::is_same_v<T, DramSchedPolicy>) {
        if (text == "fcfs") dst = DramSchedPolicy::FCFS;
        else if (text == "frfcfs") dst = DramSchedPolicy::FRFCFS;
        else fatal(path, ": '", text, "' is not fcfs|frfcfs");
    } else if constexpr (std::is_same_v<T, DramModel>) {
        if (text == "simple") dst = DramModel::Simple;
        else if (text == "ddr") dst = DramModel::Ddr;
        else fatal(path, ": '", text, "' is not simple|ddr");
    } else if constexpr (std::is_same_v<T, DramAddrMap>) {
        if (text == "row") dst = DramAddrMap::Row;
        else if (text == "bg") dst = DramAddrMap::BankGroup;
        else if (text == "xor") dst = DramAddrMap::Xor;
        else fatal(path, ": '", text, "' is not row|bg|xor");
    } else if constexpr (std::is_same_v<T, DramPagePolicy>) {
        if (text == "open") dst = DramPagePolicy::Open;
        else if (text == "closed") dst = DramPagePolicy::Closed;
        else fatal(path, ": '", text, "' is not open|closed");
    } else if constexpr (std::is_same_v<T, ReplPolicy>) {
        if (text == "lru") dst = ReplPolicy::LRU;
        else if (text == "fifo") dst = ReplPolicy::FIFO;
        else fatal(path, ": '", text, "' is not lru|fifo");
    } else if constexpr (std::is_same_v<T, ServePolicy>) {
        if (text == "fifo") dst = ServePolicy::Fifo;
        else if (text == "rr") dst = ServePolicy::Rr;
        else if (text == "sjf-est") dst = ServePolicy::SjfEst;
        else if (text == "fair-share") dst = ServePolicy::FairShare;
        else fatal(path, ": '", text,
                   "' is not fifo|rr|sjf-est|fair-share");
    } else if constexpr (std::is_same_v<T, ServePartition>) {
        if (text == "static") dst = ServePartition::Static;
        else if (text == "dynamic") dst = ServePartition::Dynamic;
        else fatal(path, ": '", text, "' is not static|dynamic");
    } else {
        static_assert(std::is_unsigned_v<T>,
                      "unsupported override type");
        dst = static_cast<T>(parseUnsigned(
            text, path, std::numeric_limits<T>::max()));
    }
}

template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, ClockRatio>) {
        return formatClockRatio(v);
    } else if constexpr (std::is_same_v<T, IdleFastForward>) {
        return v == IdleFastForward::Off ? "off" : "perDomain";
    } else if constexpr (std::is_same_v<T, SchedPolicy>) {
        return v == SchedPolicy::LRR ? "lrr" : "gto";
    } else if constexpr (std::is_same_v<T, DramSchedPolicy>) {
        return v == DramSchedPolicy::FCFS ? "fcfs" : "frfcfs";
    } else if constexpr (std::is_same_v<T, DramModel> ||
                         std::is_same_v<T, DramAddrMap> ||
                         std::is_same_v<T, DramPagePolicy>) {
        return toString(v);
    } else if constexpr (std::is_same_v<T, ReplPolicy>) {
        return v == ReplPolicy::LRU ? "lru" : "fifo";
    } else if constexpr (std::is_same_v<T, ServePolicy>) {
        switch (v) {
          case ServePolicy::Fifo: return "fifo";
          case ServePolicy::Rr: return "rr";
          case ServePolicy::SjfEst: return "sjf-est";
          default: return "fair-share";
        }
    } else if constexpr (std::is_same_v<T, ServePartition>) {
        return v == ServePartition::Static ? "static" : "dynamic";
    } else {
        return std::to_string(v);
    }
}

template <typename Ref>
ConfigKey
makeKey(std::string path, const char *type, Ref ref)
{
    ConfigKey key;
    key.path = std::move(path);
    key.type = type;
    key.set = [ref, path = key.path](GpuConfig &cfg,
                                     const std::string &text) {
        parseValue(path, text, ref(cfg));
    };
    key.get = [ref](const GpuConfig &cfg) {
        return formatValue(ref(const_cast<GpuConfig &>(cfg)));
    };
    return key;
}

/** The stringized member expression doubles as the dotted path. */
#define GPULAT_CFG_KEY(member, type)                                      \
    makeKey(#member, type,                                                \
            [](GpuConfig &c) -> auto & { return c.member; })

std::vector<ConfigKey>
buildKeys()
{
    std::vector<ConfigKey> keys = {
        GPULAT_CFG_KEY(name, "string"),
        GPULAT_CFG_KEY(numSms, "uint"),
        GPULAT_CFG_KEY(numPartitions, "uint"),
        GPULAT_CFG_KEY(icntClock, "ratio M/D"),
        GPULAT_CFG_KEY(l2Clock, "ratio M/D"),
        GPULAT_CFG_KEY(dramClock, "ratio M/D"),
        GPULAT_CFG_KEY(idleFastForward, "off|perDomain"),
        GPULAT_CFG_KEY(engine.tickJobs, "jobs (0 = hw)"),
        GPULAT_CFG_KEY(engine.watchdogStallSteps, "steps (0 = off)"),
        GPULAT_CFG_KEY(icntLatency, "cycles"),
        GPULAT_CFG_KEY(icntInQueue, "uint"),
        GPULAT_CFG_KEY(icntOutQueue, "uint"),
        GPULAT_CFG_KEY(deviceMemBytes, "bytes"),
        GPULAT_CFG_KEY(localBytesPerThread, "bytes"),
        GPULAT_CFG_KEY(seed, "uint"),
        GPULAT_CFG_KEY(serving.policy, "fifo|rr|sjf-est|fair-share"),
        GPULAT_CFG_KEY(serving.partition, "static|dynamic"),
        GPULAT_CFG_KEY(serving.maxConcurrent, "launches"),
        GPULAT_CFG_KEY(serving.smsPerLaunch, "SMs (0 = auto)"),

        GPULAT_CFG_KEY(sm.warpSlots, "uint"),
        GPULAT_CFG_KEY(sm.numSchedulers, "uint"),
        GPULAT_CFG_KEY(sm.schedPolicy, "lrr|gto"),
        GPULAT_CFG_KEY(sm.maxBlocksPerSm, "uint"),
        GPULAT_CFG_KEY(sm.regsPerSm, "uint"),
        GPULAT_CFG_KEY(sm.smemPerSm, "bytes"),
        GPULAT_CFG_KEY(sm.aluLatency, "cycles"),
        GPULAT_CFG_KEY(sm.fpLatency, "cycles"),
        GPULAT_CFG_KEY(sm.smemLatency, "cycles"),
        GPULAT_CFG_KEY(sm.smemBanks, "uint"),
        GPULAT_CFG_KEY(sm.smemConflictPenalty, "cycles"),
        GPULAT_CFG_KEY(sm.lsuQueueSize, "uint"),
        GPULAT_CFG_KEY(sm.smBaseLatency, "cycles"),
        GPULAT_CFG_KEY(sm.lineBytes, "bytes"),
        GPULAT_CFG_KEY(sm.l1Enabled, "bool"),
        GPULAT_CFG_KEY(sm.l1CachesGlobal, "bool"),
        GPULAT_CFG_KEY(sm.l1CachesLocal, "bool"),
        GPULAT_CFG_KEY(sm.l1HitLatency, "cycles"),
        GPULAT_CFG_KEY(sm.l1MissLatency, "cycles"),
        GPULAT_CFG_KEY(sm.l1MshrEntries, "uint"),
        GPULAT_CFG_KEY(sm.l1MshrMaxMerge, "uint"),
        GPULAT_CFG_KEY(sm.l1MissQueueSize, "uint"),
        GPULAT_CFG_KEY(sm.l1Cache.capacityBytes, "bytes"),
        GPULAT_CFG_KEY(sm.l1Cache.ways, "uint"),
        GPULAT_CFG_KEY(sm.l1Cache.repl, "lru|fifo"),

        GPULAT_CFG_KEY(partition.ropQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.ropLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2Enabled, "bool"),
        GPULAT_CFG_KEY(partition.l2QueueSize, "uint"),
        GPULAT_CFG_KEY(partition.l2QueueLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2HitLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2MissLatency, "cycles"),
        GPULAT_CFG_KEY(partition.l2MshrEntries, "uint"),
        GPULAT_CFG_KEY(partition.l2MshrMaxMerge, "uint"),
        GPULAT_CFG_KEY(partition.l2Cache.capacityBytes, "bytes"),
        GPULAT_CFG_KEY(partition.l2Cache.ways, "uint"),
        GPULAT_CFG_KEY(partition.l2Cache.repl, "lru|fifo"),
        GPULAT_CFG_KEY(partition.dramQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.sched, "fcfs|frfcfs"),
        GPULAT_CFG_KEY(partition.dramCmdInterval, "cycles"),
        GPULAT_CFG_KEY(partition.returnQueueSize, "uint"),
        GPULAT_CFG_KEY(partition.returnQueueLatency, "cycles"),
        GPULAT_CFG_KEY(partition.dram.banks, "uint"),
        GPULAT_CFG_KEY(partition.dram.rowBytes, "bytes"),
        GPULAT_CFG_KEY(partition.dram.timing.tRCD, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tRP, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tCAS, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tBurst, "cycles"),
        GPULAT_CFG_KEY(partition.dram.timing.tExtra, "cycles"),

        // Memory-fidelity axes live under a stable `mem.` namespace
        // (sweep specs shouldn't depend on which struct holds the
        // knob).
        makeKey("mem.dram.model", "simple|ddr",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.model;
                }),
        makeKey("mem.dram.map", "row|bg|xor",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.map;
                }),
        makeKey("mem.dram.pagePolicy", "open|closed",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.page;
                }),
        makeKey("mem.dram.ranks", "uint",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ranks;
                }),
        makeKey("mem.dram.bankGroups", "uint",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.bankGroups;
                }),
        makeKey("mem.dram.tRAS", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tRAS;
                }),
        makeKey("mem.dram.tRRDS", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tRRDS;
                }),
        makeKey("mem.dram.tRRDL", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tRRDL;
                }),
        makeKey("mem.dram.tFAW", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tFAW;
                }),
        makeKey("mem.dram.tWTR", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tWTR;
                }),
        makeKey("mem.dram.tRTW", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tRTW;
                }),
        makeKey("mem.dram.tREFI", "cycles (0 = no refresh)",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tREFI;
                }),
        makeKey("mem.dram.tRFC", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dram.ddr.tRFC;
                }),
        makeKey("mem.dram.starveLimit", "cycles",
                [](GpuConfig &c) -> auto & {
                    return c.partition.dramStarvationLimit;
                }),
        makeKey("mem.mshr.banks", "uint",
                [](GpuConfig &c) -> auto & {
                    return c.partition.l2MshrBanks;
                }),
        makeKey("mem.mshr.bankEntries", "uint (0 = entries/banks)",
                [](GpuConfig &c) -> auto & {
                    return c.partition.l2MshrBankEntries;
                }),
        makeKey("mem.mshr.bankMerges", "uint (0 = maxMerge)",
                [](GpuConfig &c) -> auto & {
                    return c.partition.l2MshrBankMerges;
                }),
    };

#undef GPULAT_CFG_KEY

    std::sort(keys.begin(), keys.end(),
              [](const ConfigKey &a, const ConfigKey &b) {
                  return a.path < b.path;
              });
    return keys;
}

const ConfigKey *
findKey(const std::string &path)
{
    for (const ConfigKey &key : configKeys()) {
        if (key.path == path)
            return &key;
    }
    return nullptr;
}

} // namespace

const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> keys = buildKeys();
    return keys;
}

void
applyOverride(GpuConfig &cfg, const std::string &assignment)
{
    const auto [path, value] = ParamMap::splitAssignment(assignment);
    const ConfigKey *key = findKey(path);
    if (!key) {
        fatal("unknown config key '", path,
              "' (see `gpulat list keys`)");
    }
    key->set(cfg, value);
}

void
applyOverrides(GpuConfig &cfg,
               const std::vector<std::string> &assignments)
{
    for (const std::string &a : assignments)
        applyOverride(cfg, a);
}

std::string
readOverride(const GpuConfig &cfg, const std::string &path)
{
    const ConfigKey *key = findKey(path);
    if (!key)
        fatal("unknown config key '", path, "'");
    return key->get(cfg);
}

} // namespace gpulat
