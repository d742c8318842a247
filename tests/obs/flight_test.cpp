// Flight_recorder: ring-wrap accounting, deterministic non-consuming
// dumps, detection counting, and the armed auto-dump-on-detection path;
// plus the per-thread log it shares with Trace_recorder: one number per
// thread in both outputs, independent retention, and concurrent drains.
//
// The recorder is process-wide (like the registry), so every test calls
// reset() first and the assertions only touch what the test itself
// recorded.  Dump parsing is plain substring work on the JSON text -- the
// format is part of the contract (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/verify_status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace seda::obs {
namespace {

#define SKIP_UNLESS_OBS_LIVE() \
    if (!enabled()) GTEST_SKIP() << "observability disabled in this build/env"

/// The value of an integer field like `"events": 123` in a dump.
u64 json_field(const std::string& dump, const std::string& field)
{
    const std::string key = "\"" + field + "\": ";
    const auto pos = dump.find(key);
    EXPECT_NE(pos, std::string::npos) << field << " missing from dump";
    if (pos == std::string::npos) return 0;
    return std::strtoull(dump.c_str() + pos + key.size(), nullptr, 10);
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (auto pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

std::string dump_to_string()
{
    std::ostringstream os;
    Flight_recorder::dump(os);
    return os.str();
}

/// The chrome `tid` of the span named `name` in a rendered trace.
u64 trace_tid(const std::string& trace, const std::string& name)
{
    const auto pos = trace.find("{\"name\": \"" + name + "\"");
    EXPECT_NE(pos, std::string::npos) << name << " missing from trace";
    return pos == std::string::npos ? 0 : json_field(trace.substr(pos), "tid");
}

/// The `thread` of the flight event at `addr` in a dump.
u64 flight_thread(const std::string& dump, u64 addr)
{
    const auto pos = dump.find("\"addr\": " + std::to_string(addr) + ",");
    EXPECT_NE(pos, std::string::npos) << "addr " << addr << " missing from dump";
    return pos == std::string::npos ? 0 : json_field(dump.substr(dump.rfind("{", pos)), "thread");
}

TEST(ObsFlightRecorder, RecordsAndDumpsWithTenantAttribution)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    Flight_recorder::record(Flight_kind::flush_write, 3, 0x1000, 16, 1024);
    Flight_recorder::record(Flight_kind::window, k_flight_no_tenant, 0, 5, 0);

    const std::string dump = dump_to_string();
    EXPECT_EQ(json_field(dump, "events"), 2u);
    EXPECT_EQ(json_field(dump, "overwritten"), 0u);
    EXPECT_NE(dump.find("\"kind\": \"flush_write\", \"tenant\": 3, \"addr\": 4096, "
                        "\"n\": 16, \"bytes\": 1024"),
              std::string::npos)
        << dump;
    // The no-tenant sentinel renders as NO tenant field at all.
    const auto window_pos = dump.find("\"kind\": \"window\"");
    ASSERT_NE(window_pos, std::string::npos);
    EXPECT_EQ(dump.find("\"tenant\"", window_pos), std::string::npos);
}

TEST(ObsFlightRecorder, RingWrapKeepsNewestAndCountsOverwritten)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    constexpr u64 k_extra = 57;
    const u64 total = Flight_recorder::k_ring_capacity + k_extra;
    for (u64 i = 0; i < total; ++i)
        Flight_recorder::record(Flight_kind::flush_read, 0, i, 1, 64);

    const std::string dump = dump_to_string();
    EXPECT_EQ(json_field(dump, "events"), Flight_recorder::k_ring_capacity);
    EXPECT_EQ(json_field(dump, "overwritten"), k_extra);
    // The oldest k_extra events were evicted; the newest survive.
    EXPECT_EQ(dump.find("\"addr\": " + std::to_string(k_extra - 1) + ","),
              std::string::npos);
    EXPECT_NE(dump.find("\"addr\": " + std::to_string(k_extra) + ","), std::string::npos);
    EXPECT_NE(dump.find("\"addr\": " + std::to_string(total - 1) + ","),
              std::string::npos);
}

TEST(ObsFlightRecorder, DumpIsNonConsumingAndByteDeterministic)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    std::thread other([] {
        for (u64 i = 0; i < 10; ++i)
            Flight_recorder::record(Flight_kind::flush_write, 1, 0x2000 + i * 64, 2, 128);
    });
    for (u64 i = 0; i < 10; ++i)
        Flight_recorder::record(Flight_kind::window, k_flight_no_tenant, 0, i, 0);
    other.join();

    const std::string first = dump_to_string();
    const std::string second = dump_to_string();
    EXPECT_EQ(first, second);
    EXPECT_EQ(json_field(first, "events"), 20u);

    // Merge order is by timestamp: the t_us sequence never decreases.
    double last = -1.0;
    const std::string key = "\"t_us\": ";
    for (auto pos = first.find(key); pos != std::string::npos;
         pos = first.find(key, pos + key.size())) {
        const double t = std::strtod(first.c_str() + pos + key.size(), nullptr);
        EXPECT_GE(t, last);
        last = t;
    }
}

TEST(ObsFlightRecorder, DetectCountsAndFiresArmedAutoDump)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    const std::string path = testing::TempDir() + "seda_flight_autodump_test.json";
    std::remove(path.c_str());

    // A detection with no armed path only appends + counts.
    Flight_recorder::record(Flight_kind::flush_read, 2, 0x40, 4, 256);
    Flight_recorder::detect(Flight_kind::detect, 2, 0x40, 7, 1, 3,
                            static_cast<u8>(core::Verify_status::mac_mismatch));
    EXPECT_EQ(Flight_recorder::detections(), 1u);
    { std::ifstream f(path); EXPECT_FALSE(f.good()); }

    // Armed: the next detection snapshots the whole ring to the path.
    Flight_recorder::arm_auto_dump(path);
    Flight_recorder::detect(Flight_kind::infer_detect, k_flight_no_tenant, 0x80, 9, 0, 1,
                            static_cast<u8>(core::Verify_status::replay_detected));
    Flight_recorder::arm_auto_dump("");  // disarm before any assertion can throw
    EXPECT_EQ(Flight_recorder::detections(), 2u);

    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << "auto-dump did not write " << path;
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string dump = buf.str();
    EXPECT_EQ(json_field(dump, "events"), 3u);
    EXPECT_EQ(json_field(dump, "detections"), 2u);
    // Detections carry the full attribution coordinates and status string.
    EXPECT_NE(dump.find("\"kind\": \"detect\", \"tenant\": 2, \"addr\": 64, "
                        "\"layer\": 7, \"fmap\": 1, \"blk\": 3, "
                        "\"status\": \"mac_mismatch\""),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\"status\": \"replay_detected\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsFlightRecorder, DumpFlightReportsUnopenablePath)
{
    SKIP_UNLESS_OBS_LIVE();
    EXPECT_FALSE(Flight_recorder::dump_flight("/nonexistent-dir/flight.json"));
    const std::string path = testing::TempDir() + "seda_flight_dump_test.json";
    EXPECT_TRUE(Flight_recorder::dump_flight(path));
    std::remove(path.c_str());
}

TEST(ObsFlightRecorder, EmptyDumpIsWellFormed)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    const std::string dump = dump_to_string();
    EXPECT_EQ(json_field(dump, "events"), 0u);
    EXPECT_EQ(count_occurrences(dump, "\"kind\""), 0u);
    EXPECT_NE(dump.find("\"flight\": []"), std::string::npos);
}

TEST(ObsThreadLog, ThreadHasOneNumberInTraceAndFlight)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    Trace_recorder::start();
    // Fresh threads, numbered by their first event of either kind; the
    // flight-only thread takes a number no trace span shows.
    const auto run = [](void (*body)()) { std::thread(body).join(); };
    run([] { Flight_recorder::record(Flight_kind::window, k_flight_no_tenant, 0x900, 1, 0); });
    run([] {
        Trace_recorder::emit(Stage::client, "span_first", now_ticks(), now_ticks());
        Flight_recorder::record(Flight_kind::window, k_flight_no_tenant, 0xA00, 1, 0);
    });
    run([] {
        Flight_recorder::record(Flight_kind::window, k_flight_no_tenant, 0xB00, 1, 0);
        Trace_recorder::emit(Stage::client, "flight_first", now_ticks(), now_ticks());
    });
    std::ostringstream os;
    Trace_recorder::write_json(os);

    const std::string trace = os.str();
    const std::string dump = dump_to_string();
    const u64 a = trace_tid(trace, "loadgen.client:span_first");
    const u64 b = trace_tid(trace, "loadgen.client:flight_first");
    EXPECT_GT(a, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(flight_thread(dump, 0xA00), a);
    EXPECT_EQ(flight_thread(dump, 0xB00), b);
}

TEST(ObsThreadLog, TraceDrainLeavesFlightDumpByteIdentical)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    Trace_recorder::start();
    for (u64 i = 0; i < 8; ++i) {
        Trace_recorder::emit(Stage::flush_write, {}, now_ticks(), now_ticks());
        Flight_recorder::record(Flight_kind::flush_write, 1, i * 64, 1, 64);
    }
    const std::string before = dump_to_string();
    std::ostringstream trace;
    Trace_recorder::write_json(trace);

    EXPECT_NE(trace.str().find("serve.flush_write"), std::string::npos);
    EXPECT_EQ(json_field(before, "events"), 8u);
    EXPECT_EQ(dump_to_string(), before);
}

TEST(ObsThreadLog, TraceOverflowCountsDropsWithoutEvictingFlightEvents)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    const u64 dropped_before = Trace_recorder::dropped();
    Trace_recorder::start();
    std::thread fresh([] {  // a fresh thread starts with an empty capture
        Flight_recorder::record(Flight_kind::flush_read, 2, 0x100, 1, 64);
        for (u64 i = 0; i < Trace_recorder::k_max_events_per_thread + 5; ++i)
            Trace_recorder::emit(Stage::verify, {}, i, i);
        Flight_recorder::record(Flight_kind::flush_read, 2, 0x140, 1, 64);
    });
    fresh.join();
    EXPECT_EQ(Trace_recorder::dropped() - dropped_before, 5u);
    std::ostream discard(nullptr);
    Trace_recorder::write_json(discard);

    const std::string dump = dump_to_string();
    EXPECT_EQ(json_field(dump, "events"), 2u);
    EXPECT_EQ(json_field(dump, "overwritten"), 0u);
    EXPECT_EQ(flight_thread(dump, 0x100), flight_thread(dump, 0x140));
}

TEST(ObsThreadLog, AppendsRaceDumpsAndDrains)
{
    SKIP_UNLESS_OBS_LIVE();
    Flight_recorder::reset();
    constexpr u32 k_writers = 3;
    constexpr u64 k_events = 2000;
    Trace_recorder::start();
    std::vector<std::thread> writers;
    for (u32 w = 0; w < k_writers; ++w)
        writers.emplace_back([w] {
            for (u64 i = 0; i < k_events; ++i) {
                const u64 t = now_ticks();
                Trace_recorder::emit(Stage::flush_read, "race", t, t);
                Trace_recorder::emit_flow('s', i, t);
                Flight_recorder::record(Flight_kind::flush_read, w, i, 1, 64);
            }
        });
    std::ostream discard(nullptr);
    for (int round = 0; round < 20; ++round) {
        Flight_recorder::dump(discard);
        Trace_recorder::write_json(discard);
        Trace_recorder::start();
    }
    for (auto& t : writers) t.join();
    Trace_recorder::write_json(discard);

    const std::string dump = dump_to_string();
    EXPECT_EQ(json_field(dump, "events") + json_field(dump, "overwritten"),
              k_writers * k_events);
}

}  // namespace
}  // namespace seda::obs
