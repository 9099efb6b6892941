/**
 * @file
 * Typed key=value parameter maps for the experiment API. Workload
 * factories and the CLI parse user-supplied `key=value` strings
 * into a ParamMap and read them back through typed getters; keys
 * nobody consumed are reported so a typo ("ndoes=4096") is a fatal
 * error instead of a silently ignored knob.
 */

#ifndef GPULAT_API_PARAM_MAP_HH
#define GPULAT_API_PARAM_MAP_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gpulat {

/**
 * The one integer parser for user input (workload params, config
 * overrides, CLI flags): a non-negative integer in @p base (0 =
 * strtoull's 0x/0 prefixes) no larger than @p max. fatal(), naming
 * @p what, on a sign, leading space, trailing junk, overflow of
 * 64 bits or a value above @p max (e.g. the target type's range).
 */
std::uint64_t parseUnsigned(const std::string &text,
                            const std::string &what,
                            std::uint64_t max = UINT64_MAX,
                            int base = 0);

class ParamMap
{
  public:
    ParamMap() = default;

    /** Parse `key=value` assignments; fatal() on a missing '='. */
    static ParamMap parse(const std::vector<std::string> &assignments);

    /** Split one `key=value` string; fatal() on a missing '='. */
    static std::pair<std::string, std::string>
    splitAssignment(const std::string &assignment);

    void set(const std::string &key, const std::string &value);
    bool has(const std::string &key) const;

    /** @name Typed getters (mark the key consumed; fatal on a
     *  malformed value) @{ */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;
    unsigned getUnsigned(const std::string &key, unsigned def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;
    /** @} */

    /** All entries, sorted by key. */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

    bool empty() const { return entries_.empty(); }

    /** Keys never read through a getter (likely typos). */
    std::vector<std::string> unconsumedKeys() const;

    /** Render as "k=v k=v" (sorted), for labels and sinks. */
    std::string toString() const;

  private:
    std::map<std::string, std::string> entries_;
    /** Consumption is bookkeeping, not logical state. */
    mutable std::set<std::string> consumed_;
};

} // namespace gpulat

#endif // GPULAT_API_PARAM_MAP_HH
