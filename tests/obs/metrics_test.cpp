// Metrics_registry: handle semantics, sharded concurrency, scrape
// stability, and the stage-span / trace-recorder plumbing on top of it.
//
// Every test registers metric names unique to itself: the registry is
// process-wide, and under the TSan job several Obs* tests share one process.
#include <gtest/gtest.h>

#include <future>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace seda::obs {
namespace {

/// The registry hot paths are inert when compiled out or switched off via
/// SEDA_OBS=0; these tests exercise the live paths only.
#define SKIP_UNLESS_OBS_LIVE() \
    if (!enabled()) GTEST_SKIP() << "observability disabled in this build/env"

/// Splits [0, n) into one range per pool worker and runs `record(range)`
/// on every worker: each task holds at a start latch until all of them
/// have started, so no worker can take two and, for n >= pool.size(),
/// every worker records.
template <typename Record>
void record_on_every_worker(runtime::Thread_pool& pool, std::size_t n, Record record)
{
    const auto ranges = runtime::shard_ranges(n, pool.size());
    std::latch start(static_cast<std::ptrdiff_t>(ranges.size()));
    std::vector<std::future<void>> tasks;
    for (const auto range : ranges)
        tasks.push_back(pool.submit([&start, &record, range] {
            start.arrive_and_wait();
            record(range);
        }));
    for (auto& t : tasks) t.get();
}

u64 counter_value(const Snapshot& snap, std::string_view name)
{
    for (const auto& c : snap.counters)
        if (c.name == name) return c.value;
    return 0;
}

TEST(ObsRegistry, CounterAccumulatesAcrossHandles)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const Counter a = reg.counter("test_counter_accum");
    a.add();
    a.add(41);
    // A second handle onto the same name feeds the same metric.
    const Counter b = reg.counter("test_counter_accum");
    b.add(8);
    EXPECT_EQ(counter_value(reg.scrape(), "test_counter_accum"), 50u);
}

TEST(ObsRegistry, GaugeGoesUpAndDown)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const Gauge g = reg.gauge("test_gauge_updown");
    g.add(10);
    g.add(-3);
    const Snapshot snap = reg.scrape();
    for (const auto& row : snap.gauges)
        if (row.name == "test_gauge_updown") {
            EXPECT_EQ(row.value, 7);
            return;
        }
    FAIL() << "gauge row missing";
}

TEST(ObsRegistry, CrossTypeNameCollisionThrows)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    (void)reg.counter("test_collision_name");
    EXPECT_THROW((void)reg.gauge("test_collision_name"), Seda_error);
    EXPECT_THROW((void)reg.histogram("test_collision_name"), Seda_error);
    // Same-type re-registration is the documented re-open path.
    EXPECT_NO_THROW((void)reg.counter("test_collision_name"));
}

TEST(ObsRegistry, ScrapeOfQuiescedProcessIsStableAndSorted)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    reg.counter("test_stable_b").add(2);
    reg.counter("test_stable_a").add(1);
    reg.histogram("test_stable_h").record(5.0);

    const Snapshot s1 = reg.scrape();
    const Snapshot s2 = reg.scrape();
    ASSERT_EQ(s1.counters.size(), s2.counters.size());
    for (std::size_t i = 0; i < s1.counters.size(); ++i) {
        EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
        EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
        if (i > 0) {
            // Strictly increasing by (name, label value): labeled rows of
            // one family share the name and sort by value.
            const auto key = [](const Snapshot::Counter_row& r) {
                return std::pair(r.name, r.label_value);
            };
            EXPECT_LT(key(s1.counters[i - 1]), key(s1.counters[i]));
        }
    }
    // Rendered exports are therefore byte-stable too.
    std::ostringstream prom1;
    std::ostringstream prom2;
    write_prometheus(s1, prom1);
    write_prometheus(s2, prom2);
    EXPECT_EQ(prom1.str(), prom2.str());
}

TEST(ObsRegistry, ConcurrentShardsMergeExactly)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const Counter c = reg.counter("test_concurrent_counter");
    const Histogram h = reg.histogram("test_concurrent_hist");

    constexpr std::size_t k_items = 40000;
    runtime::Thread_pool pool(8);
    record_on_every_worker(pool, k_items, [&](runtime::Index_range range) {
        for (std::size_t i = range.begin; i < range.end; ++i) {
            c.add();
            h.record(static_cast<double>(i % 97) + 1.0);
        }
    });

    const Snapshot snap = reg.scrape();
    EXPECT_EQ(counter_value(snap, "test_concurrent_counter"), k_items);
    const auto* row = find_histogram(snap, "test_concurrent_hist");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->hist.count(), k_items);
    EXPECT_GE(row->hist.min(), 1.0 - 0.01);
    EXPECT_LE(row->hist.max(), 97.0 * 1.01);
}

TEST(ObsRegistry, ValuesSurviveRecordingThreadExit)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const Counter c = reg.counter("test_thread_exit_counter");
    {
        // A short-lived pool: its workers record, then exit and donate
        // their cells back; the values must still scrape.
        runtime::Thread_pool pool(4);
        record_on_every_worker(pool, 1000, [&](runtime::Index_range range) {
            for (std::size_t i = range.begin; i < range.end; ++i) c.add();
        });
    }
    EXPECT_EQ(counter_value(reg.scrape(), "test_thread_exit_counter"), 1000u);
}

TEST(ObsStageSpan, SpanRecordsIntoStageHistogram)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const auto count_of = [&] {
        const Snapshot snap = reg.scrape();
        const auto* row = find_histogram(snap, stage_metric_name(Stage::stage_writes));
        return row ? row->hist.count() : 0;
    };
    // Spans sample every Nth construction per thread; N*16 constructions
    // therefore record exactly 16 times, whatever the counter's phase.
    const unsigned stride = stage_sample_stride();
    const u64 before = count_of();
    for (unsigned i = 0; i < 16 * stride; ++i) {
        Stage_span span(Stage::stage_writes);
    }
    EXPECT_EQ(count_of(), before + 16);
}

TEST(ObsStageSpan, CoarseStagesAreExemptFromSampling)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const auto count_of = [&] {
        const Snapshot snap = reg.scrape();
        const auto* row = find_histogram(snap, stage_metric_name(Stage::infer_layer));
        return row ? row->hist.count() : 0;
    };
    // Per-layer spans are few per run (fewer than one stride for a small
    // model), so every construction must record.
    const u64 before = count_of();
    for (int i = 0; i < 3; ++i) {
        Stage_span span(Stage::infer_layer, "l");
    }
    EXPECT_EQ(count_of(), before + 3);
}

TEST(ObsStageSpan, SampleStrideParsesWholeUnsignedOnly)
{
    // SEDA_OBS_SAMPLE is untrusted input: anything but a whole decimal
    // unsigned >= 1 is rejected, and the caller keeps the default.
    const struct {
        std::string_view text;
        std::optional<unsigned> stride;
    } cases[] = {
        {"1", 1u},
        {"32", 32u},
        {"007", 7u},
        {"4294967295", 4294967295u},
        {"4294967296", std::nullopt},  // 2^32: narrowed from a wider type, stride 0
        {"99999999999999999999", std::nullopt},
        {"0", std::nullopt},
        {"", std::nullopt},
        {"-1", std::nullopt},
        {"+8", std::nullopt},
        {" 8", std::nullopt},
        {"8 ", std::nullopt},
        {"abc", std::nullopt},
        {"32x", std::nullopt},
        {"0x20", std::nullopt},
    };
    for (const auto& c : cases)
        EXPECT_EQ(parse_sample_stride(c.text), c.stride) << "'" << c.text << "'";
}

TEST(ObsStageSpan, PhaseTimerRecordsEachLap)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const auto count_of = [&](Stage s) {
        const Snapshot snap = reg.scrape();
        const auto* row = find_histogram(snap, stage_metric_name(s));
        return row ? row->hist.count() : 0;
    };
    const unsigned stride = stage_sample_stride();
    const u64 baes_before = count_of(Stage::baes);
    const u64 mac_before = count_of(Stage::bulk_mac);
    for (unsigned i = 0; i < 16 * stride; ++i) {
        Phase_timer t;
        t.lap(Stage::baes);
        t.lap(Stage::bulk_mac);
    }
    EXPECT_EQ(count_of(Stage::baes), baes_before + 16);
    EXPECT_EQ(count_of(Stage::bulk_mac), mac_before + 16);
}

TEST(ObsTrace, RecorderCapturesSpansAndRendersChromeJson)
{
    SKIP_UNLESS_OBS_LIVE();
    Trace_recorder::start();
    ASSERT_TRUE(Trace_recorder::active());
    { Stage_span span(Stage::infer_layer, "conv\"1\\x"); }
    { Stage_span span(Stage::verify); }
    std::ostringstream os;
    Trace_recorder::write_json(os);
    EXPECT_FALSE(Trace_recorder::active());  // write_json disarms

    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("infer.layer:conv\\\"1\\\\x"), std::string::npos);
    EXPECT_NE(json.find("crypto.verify"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsTrace, InactiveRecorderCostsNothingAndRendersEmpty)
{
    SKIP_UNLESS_OBS_LIVE();
    // Not started (or already drained by a prior test): spans must not
    // accumulate events.
    ASSERT_FALSE(Trace_recorder::active());
    { Stage_span span(Stage::verify); }
    std::ostringstream os;
    Trace_recorder::write_json(os);
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(os.str().find("crypto.verify"), std::string::npos);
}

TEST(ObsExport, JsonAndPrometheusCarryHistogramSummaries)
{
    SKIP_UNLESS_OBS_LIVE();
    auto& reg = Metrics_registry::instance();
    const Histogram h = reg.histogram("test_export_hist_us");
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
    const Snapshot snap = reg.scrape();

    std::ostringstream prom;
    write_prometheus(snap, prom);
    EXPECT_NE(prom.str().find("# TYPE seda_test_export_hist_us histogram"),
              std::string::npos);
    EXPECT_NE(prom.str().find("seda_test_export_hist_us_bucket{le=\"+Inf\"} 100"),
              std::string::npos);
    EXPECT_NE(prom.str().find("seda_test_export_hist_us_count 100"), std::string::npos);

    std::ostringstream js;
    write_json(snap, js);
    EXPECT_NE(js.str().find("\"name\": \"test_export_hist_us\""), std::string::npos);
    EXPECT_NE(js.str().find("\"p999\""), std::string::npos);
}

}  // namespace
}  // namespace seda::obs
