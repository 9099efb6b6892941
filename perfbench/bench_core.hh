/**
 * @file
 * Pure helpers of the gpulat benchmark driver: order statistics,
 * the per-cell correctness rules (pinned cycles/instructions,
 * Table-I tolerance), metric-name validation and the in-memory span
 * recorder that writes Chrome Trace Event JSON. Nothing here touches
 * the simulator, so the self-test checks it on fixed inputs.
 */

#ifndef GPULAT_PERFBENCH_BENCH_CORE_HH
#define GPULAT_PERFBENCH_BENCH_CORE_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * CPU seconds the calling thread has run, user and system. Unlike
 * the wall clock it does not advance while the thread waits for a
 * core, so it is the divisor of the simulation rates.
 */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Simulated cycles and warp instructions a cell must reproduce. */
struct Pin
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

/**
 * Why a cell's simulated totals break its pin ("" when they match
 * or when @p pin is null, i.e. nothing is pinned for this run).
 */
inline std::string
pinViolation(const Pin *pin, std::uint64_t cycles,
             std::uint64_t instructions)
{
    if (!pin)
        return "";
    if (cycles != pin->cycles)
        return "cycles " + std::to_string(cycles) + " != pinned " +
               std::to_string(pin->cycles);
    if (instructions != pin->instructions)
        return "instructions " + std::to_string(instructions) +
               " != pinned " + std::to_string(pin->instructions);
    return "";
}

/** One published Table-I cell and what the simulator measured. */
struct Table1Point
{
    double paperCycles = 0.0;
    double measuredCycles = 0.0;
};

/** |simulated - paper| / paper in percent. */
inline double
table1ErrPct(const Table1Point &p)
{
    return 100.0 * std::fabs(p.measuredCycles - p.paperCycles) /
           p.paperCycles;
}

/** Largest Table-I error over @p points; 0 when empty. */
inline double
table1MaxErrPct(const std::vector<Table1Point> &points)
{
    double worst = 0.0;
    for (const Table1Point &p : points)
        worst = std::max(worst, table1ErrPct(p));
    return worst;
}

/** The tolerance bench_table1_static_latency enforces. */
constexpr double kTable1TolerancePct = 10.0;

/** Metric names the benchmark contract accepts: [A-Za-z0-9_.-]+. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    if (!std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               c == '_' || c == '.' || c == '-';
    });
}

/** Cells attempted and failed over one benchmark run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    double
    failPct() const
    {
        return attempted ? 100.0 * static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/**
 * In-memory span recorder. A disabled recorder records nothing, so
 * untraced repetitions pay a clock read and a branch per timed call.
 * Spans are kept until writeChromeTrace() at the end of the run.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string cell;
        std::int64_t id = 0;
        std::int64_t parent = 0; ///< 0: a root span
        double startUs = 0.0;
        double endUs = 0.0;
        std::size_t thread = 0;
    };

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id (0 when disabled). */
    std::int64_t
    begin(const std::string &name, const std::string &cell,
          std::int64_t parent)
    {
        const Clock::time_point now = Clock::now();
        return add(name, cell, parent, now, now);
    }

    /** Record a span whose interval was measured elsewhere. */
    std::int64_t
    add(const std::string &name, const std::string &cell,
        std::int64_t parent, Clock::time_point start,
        Clock::time_point end)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = name;
        s.cell = cell;
        s.id = static_cast<std::int64_t>(spans_.size()) + 1;
        s.parent = parent;
        s.startUs = usSinceOrigin(start);
        s.endUs = usSinceOrigin(end);
        s.thread = threadIndexLocked();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void
    end(std::int64_t id)
    {
        if (id == 0)
            return;
        const double now = usSinceOrigin(Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id - 1)].endUs = now;
    }

    /** Chrome Trace Event JSON (opens in Perfetto). */
    void
    writeChromeTrace(std::ostream &os) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"gpulat\",\"ph\":\"X\",\"pid\":1,"
               << "\"tid\":" << s.thread << ",\"ts\":" << s.startUs
               << ",\"dur\":" << (s.endUs - s.startUs)
               << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"cell\":\""
               << s.cell << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    double
    usSinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    std::size_t
    threadIndexLocked()
    {
        const auto id = std::this_thread::get_id();
        for (std::size_t i = 0; i < threads_.size(); ++i)
            if (threads_[i] == id)
                return i;
        threads_.push_back(id);
        return threads_.size() - 1;
    }

    Clock::time_point origin_;
    bool enabled_ = false;
    mutable std::mutex mu_; ///< guards spans_ and threads_
    std::vector<Span> spans_;
    std::vector<std::thread::id> threads_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name,
          const std::string &cell, std::int64_t parent)
        : tracer_(tracer), id_(tracer.begin(name, cell, parent))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // GPULAT_PERFBENCH_BENCH_CORE_HH
