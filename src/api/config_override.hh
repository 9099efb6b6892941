/**
 * @file
 * Dotted-path configuration overrides: apply `sm.warpSlots=16` /
 * `dramClock=1/2` style assignments on top of a named GpuConfig
 * preset, so any ablation point is expressible as preset +
 * overrides without a hand-written bench. Every overridable key is
 * also readable, which gives tests a parse/format round trip and
 * the CLI a self-describing `gpulat list keys`.
 */

#ifndef GPULAT_API_CONFIG_OVERRIDE_HH
#define GPULAT_API_CONFIG_OVERRIDE_HH

#include <functional>
#include <string>
#include <vector>

#include "gpu/gpu_config.hh"

namespace gpulat {

/** One overridable dotted-path key of GpuConfig. */
struct ConfigKey
{
    std::string path;     ///< e.g. "partition.dram.timing.tRCD"
    const char *type;     ///< human-readable value type
    std::function<void(GpuConfig &, const std::string &)> set;
    std::function<std::string(const GpuConfig &)> get;
};

/** All overridable keys, sorted by path. */
const std::vector<ConfigKey> &configKeys();

/** Apply one `path=value` assignment; fatal() on an unknown path
 *  or malformed value. */
void applyOverride(GpuConfig &cfg, const std::string &assignment);

/** Apply a list of `path=value` assignments in order. */
void applyOverrides(GpuConfig &cfg,
                    const std::vector<std::string> &assignments);

/** Current value of @p path formatted the way applyOverride parses
 *  it; fatal() on an unknown path. */
std::string readOverride(const GpuConfig &cfg,
                         const std::string &path);

/** @name Value codecs (exposed for tests) @{ */
ClockRatio parseClockRatio(const std::string &text,
                           const std::string &key);
std::string formatClockRatio(ClockRatio ratio);
/** @} */

} // namespace gpulat

#endif // GPULAT_API_CONFIG_OVERRIDE_HH
