/**
 * @file
 * Machine-readable experiment output. Every run produces one
 * ExperimentRecord with a schema-stable set of fields; StatSink
 * backends render a stream of records as an aligned text table,
 * JSON (`gpulat.run.v1`) or CSV. Every `gpulat` command feeds
 * the same records to any combination of sinks, so a sweep is
 * plottable without scraping its human-readable table.
 */

#ifndef GPULAT_API_STAT_SINK_HH
#define GPULAT_API_STAT_SINK_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workloads/workload.hh"

namespace gpulat {

/** One experiment cell: preset x workload x overrides -> results. */
struct ExperimentRecord
{
    std::string gpu;      ///< config preset name
    std::string workload; ///< registry name
    std::map<std::string, std::string> params;    ///< workload params
    std::map<std::string, std::string> overrides; ///< config paths

    bool correct = false;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    unsigned launches = 0;

    /**
     * Derived metrics with stable names: "ipc", "requests",
     * "mean_load_latency", "exposed_pct", "l1_hit_pct",
     * "dram_row_hit_pct", "mean_dram_queue_wait", one
     * "stage_pct.<stage>" per pipeline stage, and one
     * "ff_skip_pct.<domain>" per engine clock domain — the share
     * of that domain's scheduled component ticks the idle
     * fast-forward skipped (collectRecord() in api/experiment.hh
     * fills them all, always, so columns never appear or vanish
     * between runs).
     */
    std::map<std::string, double> metrics;

    /** Selected per-epoch hardware counters (optional extras). */
    std::map<std::string, std::uint64_t> counters;

    /**
     * Human-readable justification of the SM-parallel safety
     * verdict of the run's (last) launch; the boolean verdict
     * itself is `metrics["analysis.sm_parallel"]`. Both are pure
     * functions of (kernel, grid, params) — schedule- and
     * tick-jobs-invariant — so they are safe to serialize.
     */
    std::string analysisReason;

    /**
     * Resolved intra-simulation tick workers the run executed with
     * (TickEngine::tickJobs(), >= 1). Execution metadata for
     * programmatic consumers (benches comparing wall-clock per
     * worker count) — deliberately *not* serialized by any sink,
     * and `engine.tickJobs` is filtered from `overrides`, because
     * records must be byte-identical across tick-jobs values (the
     * per-group tick counters `engine.group.<name>.ticks_run` in
     * `counters` are deterministic and do ride along).
     */
    std::size_t tickJobs = 1;

    double metric(const std::string &name) const;
};

/** Consumes a stream of records; flushes on finish(). */
class StatSink
{
  public:
    virtual ~StatSink() = default;
    virtual void write(const ExperimentRecord &record) = 0;
    /** Called once after the last record. */
    virtual void finish() {}
};

/** Aligned text table (one row per record), printed on finish(). */
class TextTableSink : public StatSink
{
  public:
    /**
     * @param extra_metrics metric names appended as columns after
     *        the standard ones (benches add their experiment's
     *        headline numbers, e.g. "dram_row_hit_pct").
     */
    explicit TextTableSink(std::ostream &os,
                           std::vector<std::string> extra_metrics = {})
        : os_(os), extraMetrics_(std::move(extra_metrics)) {}
    void write(const ExperimentRecord &record) override;
    void finish() override;

  private:
    std::ostream &os_;
    std::vector<std::string> extraMetrics_;
    std::vector<ExperimentRecord> records_;
};

/** Owns the output file of a sink constructed from a path. */
class FileBackedSink : public StatSink
{
  private:
    std::unique_ptr<std::ostream> owned_; ///< before os_: init order

  protected:
    /** Stream to @p os (path constructor: opens, fatal on error). */
    explicit FileBackedSink(std::ostream &os) : os_(os) {}
    explicit FileBackedSink(const std::string &path);

    std::ostream &os_;
};

/**
 * JSON document {"schema": "gpulat.run.v1", "records": [...]}.
 * Documents that extend the records (gpulat.bench.v1) pass their
 * schema and set a trailer of further top-level members.
 */
class JsonSink : public FileBackedSink
{
  public:
    explicit JsonSink(std::ostream &os,
                      std::string schema = "gpulat.run.v1")
        : FileBackedSink(os), schema_(std::move(schema)) {}
    explicit JsonSink(const std::string &path,
                      std::string schema = "gpulat.run.v1")
        : FileBackedSink(path), schema_(std::move(schema)) {}
    void write(const ExperimentRecord &record) override;
    void finish() override;

    /** Members finish() writes after "records", pre-rendered as
     *  `,\n  "key": value` pairs. */
    void setTrailer(std::string members) { trailer_ = std::move(members); }

  private:
    std::string schema_;
    std::string trailer_;
    bool first_ = true;
};

/**
 * CSV with a fixed header row (params/overrides ';'-joined).
 * Fields follow RFC 4180: free-text cells containing the
 * delimiter, quotes or line breaks are quoted with embedded quotes
 * doubled; missing/non-finite metric cells are left empty (the
 * cell-level analogue of the JSON sink's null).
 */
class CsvSink : public FileBackedSink
{
  public:
    explicit CsvSink(std::ostream &os) : FileBackedSink(os) {}
    explicit CsvSink(const std::string &path)
        : FileBackedSink(path) {}
    void write(const ExperimentRecord &record) override;

  private:
    bool wroteHeader_ = false;
};

/** Fan out to several sinks (table to stdout + JSON to a file). */
class MultiSink : public StatSink
{
  public:
    void add(std::unique_ptr<StatSink> sink);
    bool empty() const { return sinks_.empty(); }
    void write(const ExperimentRecord &record) override;
    void finish() override;

  private:
    std::vector<std::unique_ptr<StatSink>> sinks_;
};

/**
 * Add a JsonSink (with @p schema) per @p json path and a CsvSink per
 * @p csv path to @p sinks; the path "-" means @p out. Returns the
 * JSON sinks (owned by @p sinks) for callers that set a trailer.
 */
std::vector<JsonSink *> addOutputs(MultiSink &sinks, std::ostream &out,
                                   const std::vector<std::string> &json,
                                   const std::vector<std::string> &csv,
                                   const std::string &schema =
                                       "gpulat.run.v1");

/** Escape and quote a string as a JSON literal. */
std::string jsonQuote(const std::string &s);

} // namespace gpulat

#endif // GPULAT_API_STAT_SINK_HH
