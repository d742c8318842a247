// Exposition hardening: Prometheus label-value escaping, JSON string
// escaping (metrics snapshot and --slo-out report), and registration-time
// rejection of malformed metric names and label keys (hostile label VALUES
// are legal and must round-trip escaped; names and keys are identifiers
// and must not).
//
// Metric names are unique to this file: the registry is process-wide.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace seda::obs {
namespace {

#define SKIP_UNLESS_OBS_LIVE() \
    if (!enabled()) GTEST_SKIP() << "observability disabled in this build/env"

Snapshot hostile_snapshot()
{
    Snapshot snap;
    Snapshot::Counter_row c;
    c.name = "esc_total";
    c.label_key = "tenant";
    c.label_value = "a\\b\"c\nd";  // backslash, quote, newline
    c.value = 1;
    snap.counters.push_back(c);
    return snap;
}

TEST(ObsExportEscape, PrometheusLabelValuesEscapeBackslashQuoteNewline)
{
    std::ostringstream os;
    write_prometheus(hostile_snapshot(), os);
    const std::string out = os.str();
    // Exposition-format rules: \ -> \\, " -> \", newline -> literal \n.
    EXPECT_NE(out.find("seda_esc_total{tenant=\"a\\\\b\\\"c\\nd\"} 1"),
              std::string::npos)
        << out;
    // The raw newline byte must not survive inside the sample line.
    EXPECT_EQ(out.find("c\nd"), std::string::npos) << out;
}

TEST(ObsExportEscape, JsonLabelValuesEscapeQuotesAndControlChars)
{
    std::ostringstream os;
    write_json(hostile_snapshot(), os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"tenant\": \"a\\\\b\\\"c\\u000ad\""), std::string::npos)
        << out;
}

TEST(ObsExportEscape, SloReportEscapesControlCharsInSpec)
{
    // The spec text is operator input echoed verbatim into --slo-out; a tab
    // in it must come out as \u0009, never as a raw byte that breaks the JSON.
    const Slo_tracker tracker({parse_slo("serve_tenant\tlatency_us:p99<10s:0.5")});
    std::ostringstream os;
    tracker.write_json(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"slo\": \"serve_tenant\\u0009latency_us:p99<10s:0.5\""),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"family\": \"serve_tenant\\u0009latency_us\""), std::string::npos)
        << out;
    EXPECT_EQ(out.find('\t'), std::string::npos) << out;
}

TEST(ObsExportEscape, RegistrationRejectsMalformedNamesAndKeys)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    EXPECT_THROW((void)reg.counter("9leading_digit"), Seda_error);
    EXPECT_THROW((void)reg.counter("has space"), Seda_error);
    EXPECT_THROW((void)reg.counter("has-dash"), Seda_error);
    EXPECT_THROW((void)reg.counter("has\"quote"), Seda_error);
    EXPECT_THROW((void)reg.counter(""), Seda_error);
    EXPECT_THROW((void)reg.counter("esc_ok_total", "bad key", "0"), Seda_error);
    EXPECT_THROW((void)reg.counter("esc_ok_total", "le\"", "0"), Seda_error);
    // Identifier names and keys pass; hostile label VALUES are accepted
    // (they are data, escaped at exposition time).
    EXPECT_NO_THROW((void)reg.counter("esc_ok_total", "tenant", "any\"thing"));
    EXPECT_NO_THROW((void)reg.counter("_leading_underscore_esc_total"));
}

TEST(ObsExportEscape, HostileLabelValueSurvivesRealScrape)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    reg.counter("esc_live_total", "tenant", "x\"y").add(3);

    std::ostringstream os;
    write_prometheus(reg.scrape(), os);
    EXPECT_NE(os.str().find("seda_esc_live_total{tenant=\"x\\\"y\"} 3"),
              std::string::npos)
        << os.str();
}

}  // namespace
}  // namespace seda::obs
