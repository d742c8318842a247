// Request-scoped tracing: sampling/arming, stamp plumbing, monotonic
// repair, histogram exemplars, and the end-to-end propagation through
// serve::Server -- bulk path, per-request fallback path, and the
// s/t/f flow-event chain in the chrome trace.
//
// A live trace recording arms every request (no 1-in-N sampling), which is
// what makes these deterministic; each test drains the recorder before
// finishing so it never leaks an active recording into the next test.
#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace seda::obs {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (auto pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/// Drains (and thereby stops) the active recording into a string.
std::string drain_trace()
{
    std::ostringstream os;
    Trace_recorder::write_json(os);
    return os.str();
}

TEST(ObsRequestTrace, UntracedContextIsInertAndFinishIsIdempotent)
{
    // With no recording active and a fresh thread tick, begin either skips
    // (1-in-N) or samples; a default context with id 0 must be inert either
    // way.
    Trace_context ctx;
    trace_request_pickup(ctx, 123);
    trace_request_flush(ctx, 456, 789);
    EXPECT_EQ(ctx.t_pickup, 0u);
    EXPECT_EQ(ctx.t_flush0, 0u);
    trace_request_finish(ctx);  // no-op, must not crash or record
    EXPECT_EQ(ctx.trace_id, 0u);
}

TEST(ObsRequestTrace, ActiveRecordingTracesEveryRequestAndRepairsStamps)
{
    Trace_recorder::start();

    // Every begin samples while a recording is active -- ids are distinct.
    Trace_context a;
    Trace_context b;
    trace_request_begin(a);
    trace_request_begin(b);
    ASSERT_NE(a.trace_id, 0u);
    ASSERT_NE(b.trace_id, 0u);
    EXPECT_NE(a.trace_id, b.trace_id);
    EXPECT_NE(a.t_submit, 0u);

    // Normal path: stamps propagate.
    trace_request_pickup(a, a.t_submit + 10);
    trace_request_flush(a, a.t_submit + 20, a.t_submit + 30);
    EXPECT_EQ(a.t_pickup, a.t_submit + 10);
    const u64 a_id = a.trace_id;
    trace_request_finish(a);
    EXPECT_EQ(a.trace_id, 0u);  // finish consumes the context
    trace_request_finish(a);    // double-finish is a no-op

    // Repair path: b was "rejected before pickup" -- no stamps at all.
    // finish must still emit a full (collapsed) decomposition.
    trace_request_finish(b);

    const std::string trace = drain_trace();
    // Two finished requests -> two flow chains, each s/t/f once.
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"s\""), 2u);
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"t\""), 2u);
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"f\""), 2u);
    EXPECT_NE(trace.find("\"id\": " + std::to_string(a_id) + ","), std::string::npos);
    // Four phase spans per finished request.
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req.queue\""), 2u);
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req.window\""), 2u);
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req.crypto\""), 2u);
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req.complete\""), 2u);
    // Flow finishes carry the binding-point hint chrome expects.
    EXPECT_EQ(count_occurrences(trace, "\"bp\": \"e\""), 2u);
}

TEST(ObsRequestTrace, FinishFeedsStageHistogramsWithExemplar)
{
    if (!enabled()) GTEST_SKIP() << "observability disabled in this build/env";
    Trace_recorder::start();

    const Snapshot before = Metrics_registry::instance().scrape();
    const auto* row0 = find_histogram(before, "serve_req_queue_us");
    const u64 count0 = row0 != nullptr ? row0->hist.count() : 0;

    Trace_context ctx;
    trace_request_begin(ctx);
    ASSERT_NE(ctx.trace_id, 0u);
    const u64 id = ctx.trace_id;
    trace_request_pickup(ctx, now_ticks());
    const u64 t0 = now_ticks();
    trace_request_flush(ctx, t0, now_ticks());
    trace_request_finish(ctx);
    (void)drain_trace();

    const Snapshot after = Metrics_registry::instance().scrape();
    for (const char* name : {"serve_req_queue_us", "serve_req_window_us",
                             "serve_req_crypto_us", "serve_req_complete_us"}) {
        const auto* row = find_histogram(after, name);
        ASSERT_NE(row, nullptr) << name;
        EXPECT_GE(row->hist.count(), 1u) << name;
        EXPECT_NE(row->exemplar_trace_id, 0u) << name;
    }
    const auto* row1 = find_histogram(after, "serve_req_queue_us");
    EXPECT_EQ(row1->hist.count(), count0 + 1);
    // This finish is the newest observation; with a quiesced registry its
    // id is at least as new as the surfaced (max-value) exemplar's.
    EXPECT_LE(row1->exemplar_trace_id, id);
}

TEST(ObsRequestTrace, PropagatesThroughServerBulkAndFallbackPaths)
{
    const auto key = [](u64 seed) {
        Rng rng(seed);
        std::vector<u8> k(16);
        for (auto& b : k) b = rng.next_byte();
        return k;
    };
    const auto request = [](serve::Op op, Addr addr, std::vector<u8> payload = {}) {
        serve::Request r;
        r.tenant_id = 0;
        r.op = op;
        r.addr = addr;
        r.payload = std::move(payload);
        return r;
    };

    Trace_recorder::start();
    serve::Server server(key(1), key(2), {.tenants = 1, .workers = 2});
    server.start();

    std::vector<u8> data(64, 0x5A);
    ASSERT_EQ(server.submit(request(serve::Op::write, 0, data)).get().status,
              core::Verify_status::ok);

    // A poisoned read (never-written unit) coalesced with good ones forces
    // the bulk reject -> per-request fallback path; the traced contexts must
    // finish on BOTH paths (the poison via reject, the good ones via
    // fallback completion).
    auto good1 = server.submit(request(serve::Op::read, 0));
    auto poison = server.submit(request(serve::Op::read, 64 * 99));
    auto good2 = server.submit(request(serve::Op::read, 0));
    EXPECT_EQ(good1.get().status, core::Verify_status::ok);
    EXPECT_THROW((void)poison.get(), Seda_error);
    EXPECT_EQ(good2.get().payload, data);

    server.drain();
    server.stop();

    const std::string trace = drain_trace();
    // Every submitted request (1 write + 3 reads) finished exactly once:
    // four complete flow chains, linked admit -> flush -> complete.
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"s\""), 4u);
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"t\""), 4u);
    EXPECT_EQ(count_occurrences(trace, "\"ph\": \"f\""), 4u);
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req.crypto\""), 4u);
    EXPECT_EQ(count_occurrences(trace, "\"name\": \"req\", \"cat\": \"req\""), 12u);
}

}  // namespace
}  // namespace seda::obs
