#include "api/stat_sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/table.hh"

namespace gpulat {

double
ExperimentRecord::metric(const std::string &name) const
{
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
}

namespace {

std::string
joinPairs(const std::map<std::string, std::string> &map,
          const char *sep)
{
    std::string out;
    for (const auto &[k, v] : map) {
        if (!out.empty())
            out += sep;
        out += k + '=' + v;
    }
    return out;
}

/** JSON number: finite doubles only (NaN/inf have no literal). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    return oss.str();
}

/**
 * A metric cell: missing and non-finite values render as the
 * sink's null marker instead of a locale-dependent "nan"/"inf"
 * token (or a fabricated 0.0) — the cell-level analogue of
 * jsonNumber's null.
 */
std::string
metricCell(const ExperimentRecord &rec, const std::string &name,
           int precision, const char *null_marker)
{
    const auto it = rec.metrics.find(name);
    if (it == rec.metrics.end() || !std::isfinite(it->second))
        return null_marker;
    return formatDouble(it->second, precision);
}

} // namespace

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

// ------------------------------------------------------- TextTableSink

void
TextTableSink::write(const ExperimentRecord &record)
{
    records_.push_back(record);
}

void
TextTableSink::finish()
{
    std::vector<std::string> header{
        "gpu", "workload", "params", "overrides", "correct",
        "cycles", "instrs", "IPC", "mean load lat", "exposed %"};
    for (const std::string &m : extraMetrics_)
        header.push_back(m);
    TextTable table(std::move(header));
    for (const ExperimentRecord &r : records_) {
        std::vector<std::string> row{
            r.gpu, r.workload, joinPairs(r.params, " "),
            joinPairs(r.overrides, " "),
            r.correct ? "yes" : "NO",
            std::to_string(r.cycles),
            std::to_string(r.instructions),
            metricCell(r, "ipc", 2, "-"),
            metricCell(r, "mean_load_latency", 1, "-"),
            metricCell(r, "exposed_pct", 1, "-")};
        for (const std::string &m : extraMetrics_)
            row.push_back(metricCell(r, m, 1, "-"));
        table.addRow(std::move(row));
    }
    table.print(os_);
}

// ------------------------------------------------------ FileBackedSink

FileBackedSink::FileBackedSink(const std::string &path)
    : owned_(std::make_unique<std::ofstream>(path)), os_(*owned_)
{
    if (!os_)
        fatal("cannot open '", path, "' for writing");
}

// ------------------------------------------------------------ JsonSink

void
JsonSink::write(const ExperimentRecord &record)
{
    os_ << (first_ ? "{\n  \"schema\": " + jsonQuote(schema_) +
                         ",\n  \"records\": [\n"
                   : std::string(",\n"));
    first_ = false;

    os_ << "    {\n      \"gpu\": " << jsonQuote(record.gpu)
        << ",\n      \"workload\": " << jsonQuote(record.workload)
        << ",\n      \"params\": {";
    bool first = true;
    for (const auto &[k, v] : record.params) {
        os_ << (first ? "" : ", ") << jsonQuote(k) << ": "
            << jsonQuote(v);
        first = false;
    }
    os_ << "},\n      \"overrides\": {";
    first = true;
    for (const auto &[k, v] : record.overrides) {
        os_ << (first ? "" : ", ") << jsonQuote(k) << ": "
            << jsonQuote(v);
        first = false;
    }
    os_ << "},\n      \"correct\": "
        << (record.correct ? "true" : "false")
        << ",\n      \"analysis_reason\": "
        << jsonQuote(record.analysisReason)
        << ",\n      \"cycles\": " << record.cycles
        << ",\n      \"instructions\": " << record.instructions
        << ",\n      \"launches\": " << record.launches
        << ",\n      \"metrics\": {";
    first = true;
    for (const auto &[k, v] : record.metrics) {
        os_ << (first ? "" : ", ") << jsonQuote(k) << ": "
            << jsonNumber(v);
        first = false;
    }
    os_ << "},\n      \"counters\": {";
    first = true;
    for (const auto &[k, v] : record.counters) {
        os_ << (first ? "" : ", ") << jsonQuote(k) << ": " << v;
        first = false;
    }
    os_ << "}\n    }";
}

void
JsonSink::finish()
{
    if (first_) {
        // No records: still emit a schema-complete document.
        os_ << "{\n  \"schema\": " << jsonQuote(schema_)
            << ",\n  \"records\": [\n";
    }
    os_ << "\n  ]" << trailer_ << "\n}\n";
}

// ------------------------------------------------------------- CsvSink

void
CsvSink::write(const ExperimentRecord &record)
{
    if (!wroteHeader_) {
        // New columns append at the end: downstream consumers (and
        // the API tests) index the earlier columns positionally.
        os_ << "gpu,workload,params,overrides,correct,cycles,"
               "instructions,launches,ipc,requests,"
               "mean_load_latency,exposed_pct,l1_hit_pct,"
               "dram_row_hit_pct,mean_dram_queue_wait,"
               "analysis_sm_parallel,analysis_reason\n";
        wroteHeader_ = true;
    }
    // RFC-4180: free-text fields are quoted when they carry the
    // delimiter, quotes or line breaks; numeric cells are emitted
    // by metricCell/formatDouble and never need quoting.
    os_ << csvField(record.gpu) << ',' << csvField(record.workload)
        << ',' << csvField(joinPairs(record.params, ";")) << ','
        << csvField(joinPairs(record.overrides, ";")) << ','
        << (record.correct ? "true" : "false") << ','
        << record.cycles << ',' << record.instructions << ','
        << record.launches << ','
        << metricCell(record, "ipc", 4, "") << ','
        << metricCell(record, "requests", 0, "") << ','
        << metricCell(record, "mean_load_latency", 2, "") << ','
        << metricCell(record, "exposed_pct", 2, "") << ','
        << metricCell(record, "l1_hit_pct", 2, "") << ','
        << metricCell(record, "dram_row_hit_pct", 2, "") << ','
        << metricCell(record, "mean_dram_queue_wait", 2, "") << ','
        << metricCell(record, "analysis.sm_parallel", 0, "") << ','
        << csvField(record.analysisReason) << '\n';
}

// ----------------------------------------------------------- MultiSink

void
MultiSink::add(std::unique_ptr<StatSink> sink)
{
    sinks_.push_back(std::move(sink));
}

void
MultiSink::write(const ExperimentRecord &record)
{
    for (auto &sink : sinks_)
        sink->write(record);
}

void
MultiSink::finish()
{
    for (auto &sink : sinks_)
        sink->finish();
}

std::vector<JsonSink *>
addOutputs(MultiSink &sinks, std::ostream &out,
           const std::vector<std::string> &json,
           const std::vector<std::string> &csv,
           const std::string &schema)
{
    std::vector<JsonSink *> docs;
    for (const std::string &path : json) {
        auto sink = path == "-" ? std::make_unique<JsonSink>(out, schema)
                                : std::make_unique<JsonSink>(path, schema);
        docs.push_back(sink.get());
        sinks.add(std::move(sink));
    }
    for (const std::string &path : csv) {
        if (path == "-")
            sinks.add(std::make_unique<CsvSink>(out));
        else
            sinks.add(std::make_unique<CsvSink>(path));
    }
    return docs;
}

} // namespace gpulat
