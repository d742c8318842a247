// Request-scoped tracing: a tiny Trace_context rides on serve::Request and
// is stamped as the request crosses the pipeline (submit -> scheduler
// pickup -> session flush -> completion).  The submit stamp is taken on
// every request -- it is the serve path's one per-request clock read, and
// the start of Serve_stats latency and the admit wait -- while the later
// stamps are kept only for traced requests.  At completion a traced
// request's stamps resolve into its critical-path decomposition:
//
//   req.queue     submit -> pickup        (admission queue wait)
//   req.window    pickup -> flush begin   (coalescing window share)
//   req.crypto    flush begin -> end      (the session call that completed it)
//   req.complete  flush end -> done      (outcome recorded; the promise settles later)
//
// The four phases land in the serve_req_*_us stage histograms carrying the
// trace id as an exemplar, and -- when a trace recording is active -- as
// chrome://tracing "X" spans plus an s/t/f flow chain (id = trace id)
// linking admit to flush to completion across threads.
//
// Arming matches Stage_span: with a recording active every request is
// traced; with only metrics live, 1-in-N requests are sampled
// (SEDA_OBS_SAMPLE); fully disarmed, submit costs its TSC read plus one
// relaxed load and a branch, and every other site tests a member against
// zero.  A request the scheduler retries alone after a rejected bulk call
// is stamped by that retry's flush, like any other.  Nothing here touches
// stdout.
#pragma once

#include "common/types.h"
#include "obs/stage.h"

namespace seda::obs {

/// Per-request trace state, value-carried on serve::Request.  trace_id == 0
/// means "not sampled": every stamp after submit short-circuits on it.
struct Trace_context {
    u64 trace_id = 0;
    u64 t_submit = 0;  ///< now_ticks() at submit, on every request; 0 = never submitted
    u64 t_pickup = 0;
    u64 t_flush0 = 0;  ///< session flush began
    u64 t_flush1 = 0;  ///< session flush ended
};

namespace detail {
void request_begin_slow(Trace_context& ctx);
void request_finish_slow(Trace_context& ctx);
}  // namespace detail

/// Stamps t_submit and samples the request for tracing (Server::submit,
/// client thread).
inline void trace_request_begin(Trace_context& ctx)
{
    ctx.t_submit = now_ticks();
    if (detail::g_span_arm.load(std::memory_order_relaxed) != 0)
        detail::request_begin_slow(ctx);
}

/// Stamps scheduler pickup (caller amortizes the now_ticks() read over the
/// popped batch).
inline void trace_request_pickup(Trace_context& ctx, u64 now)
{
    if (ctx.trace_id != 0) ctx.t_pickup = now;
}

/// Stamps the flush window that carried this request.
inline void trace_request_flush(Trace_context& ctx, u64 t0, u64 t1)
{
    if (ctx.trace_id != 0) {
        ctx.t_flush0 = t0;
        ctx.t_flush1 = t1;
    }
}

/// Resolves the decomposition into histograms/trace events (completion or
/// rejection; scheduler thread).  Idempotence is the caller's job -- each
/// request finishes exactly once.
inline void trace_request_finish(Trace_context& ctx)
{
    if (ctx.trace_id != 0) detail::request_finish_slow(ctx);
}

}  // namespace seda::obs
