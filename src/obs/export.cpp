#include "obs/export.h"

#include <cstdio>
#include <ostream>
#include <string>

#include "common/table.h"

namespace seda::obs {

namespace {

/// Shortest round-trippable double (the CLI's json_double discipline).
std::string fmt_g(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Compact double for le labels and table cells.
std::string fmt_short(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/// Prometheus label-value escaping (exposition format rules): backslash,
/// double quote, and newline; other bytes pass through verbatim.
std::string escaped(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/// `{tenant="3"}` (or "" for unlabeled rows): the Prometheus label block
/// appended to a sample name, and the suffix the stage table displays.
template <typename Row>
std::string label_block(const Row& r)
{
    if (r.label_key.empty()) return {};
    // Built by append: GCC 12's -Wrestrict false-positives on the chained
    // operator+ form under LTO-ish inlining (PR105651).
    std::string out = "{";
    out += escaped(r.label_key);
    out += "=\"";
    out += escaped(r.label_value);
    out += "\"}";
    return out;
}

/// Label block with extra `le` pair for histogram bucket samples.
template <typename Row>
std::string bucket_block(const Row& r, const std::string& le)
{
    std::string out = "{";
    if (!r.label_key.empty())
        out += escaped(r.label_key) + "=\"" + escaped(r.label_value) + "\",";
    out += "le=\"" + le + "\"}";
    return out;
}

/// Emits one `# TYPE` header per family (labeled rows of one family are
/// adjacent after the scrape sort, so tracking the previous name suffices).
void type_header(std::ostream& os, std::string& last, const std::string& name,
                 const char* kind)
{
    if (name == last) return;
    os << "# TYPE seda_" << name << " " << kind << "\n";
    last = name;
}

}  // namespace

void write_prometheus(const Snapshot& snap, std::ostream& os)
{
    std::string last;
    for (const auto& c : snap.counters) {
        type_header(os, last, c.name, "counter");
        os << "seda_" << c.name << label_block(c) << " " << c.value << "\n";
    }
    last.clear();
    for (const auto& g : snap.gauges) {
        type_header(os, last, g.name, "gauge");
        os << "seda_" << g.name << label_block(g) << " " << g.value << "\n";
    }
    last.clear();
    for (const auto& h : snap.histograms) {
        type_header(os, last, h.name, "histogram");
        const auto& counts = h.hist.bucket_counts();
        u64 cum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0) continue;
            cum += counts[i];
            os << "seda_" << h.name << "_bucket"
               << bucket_block(h, fmt_short(Log_histogram::bucket_upper(i))) << " " << cum
               << "\n";
        }
        os << "seda_" << h.name << "_bucket" << bucket_block(h, "+Inf") << " "
           << h.hist.count();
        // OpenMetrics-style exemplar on the +Inf bucket: the worst sampled
        // observation's trace id, linking the scrape to the request trace.
        if (h.exemplar_trace_id != 0)
            os << " # {trace_id=\"" << h.exemplar_trace_id << "\"} "
               << fmt_g(h.exemplar_value);
        os << "\n"
           << "seda_" << h.name << "_sum" << label_block(h) << " " << fmt_g(h.hist.sum())
           << "\n"
           << "seda_" << h.name << "_count" << label_block(h) << " " << h.hist.count()
           << "\n";
    }
}

namespace {

/// `, "labels": {"tenant": "3"}` for labeled rows, "" otherwise.
template <typename Row>
std::string json_labels(const Row& r)
{
    if (r.label_key.empty()) return {};
    return ", \"labels\": {\"" + json_escaped(r.label_key) + "\": \"" +
           json_escaped(r.label_value) + "\"}";
}

}  // namespace

void write_json(const Snapshot& snap, std::ostream& os)
{
    os << "{\n  \"counters\": [";
    for (std::size_t i = 0; i < snap.counters.size(); ++i)
        os << (i ? "," : "") << "\n    {\"name\": \"" << json_escaped(snap.counters[i].name)
           << "\"" << json_labels(snap.counters[i])
           << ", \"value\": " << snap.counters[i].value << "}";
    os << (snap.counters.empty() ? "" : "\n  ") << "],\n  \"gauges\": [";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i)
        os << (i ? "," : "") << "\n    {\"name\": \"" << json_escaped(snap.gauges[i].name)
           << "\"" << json_labels(snap.gauges[i])
           << ", \"value\": " << snap.gauges[i].value << "}";
    os << (snap.gauges.empty() ? "" : "\n  ") << "],\n  \"histograms\": [";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto& row = snap.histograms[i];
        const auto& h = row.hist;
        os << (i ? "," : "") << "\n    {\"name\": \"" << json_escaped(row.name) << "\""
           << json_labels(row) << ", \"count\": " << h.count()
           << ", \"sum\": " << fmt_g(h.sum()) << ", \"min\": " << fmt_g(h.min())
           << ", \"mean\": " << fmt_g(h.mean())
           << ", \"p50\": " << fmt_g(h.percentile(50))
           << ", \"p90\": " << fmt_g(h.percentile(90))
           << ", \"p99\": " << fmt_g(h.percentile(99))
           << ", \"p999\": " << fmt_g(h.percentile(99.9))
           << ", \"max\": " << fmt_g(h.max());
        if (row.exemplar_trace_id != 0)
            os << ", \"exemplar\": {\"trace_id\": " << row.exemplar_trace_id
               << ", \"value\": " << fmt_g(row.exemplar_value) << "}";
        os << "}";
    }
    os << (snap.histograms.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_stage_table(const Snapshot& snap, std::ostream& os)
{
    Ascii_table t({"metric", "count", "mean", "p50", "p90", "p99", "p999", "max"});
    for (const auto& h : snap.histograms) {
        if (h.hist.count() == 0) continue;
        t.add_row({h.name + label_block(h), std::to_string(h.hist.count()),
                   fmt_short(h.hist.mean()), fmt_short(h.hist.percentile(50)),
                   fmt_short(h.hist.percentile(90)), fmt_short(h.hist.percentile(99)),
                   fmt_short(h.hist.percentile(99.9)), fmt_short(h.hist.max())});
    }
    if (t.row_count() != 0) t.print(os);
    for (const auto& c : snap.counters)
        os << c.name << label_block(c) << " = " << c.value << "\n";
    for (const auto& g : snap.gauges)
        os << g.name << label_block(g) << " = " << g.value << "\n";
}

const Snapshot::Histogram_row* find_histogram(const Snapshot& snap, std::string_view name)
{
    for (const auto& h : snap.histograms) {
        if (h.label_key.empty() && h.name == name) return &h;
        if (!h.label_key.empty() && h.name + label_block(h) == name) return &h;
    }
    return nullptr;
}

}  // namespace seda::obs
