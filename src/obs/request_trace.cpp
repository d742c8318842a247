#include "obs/request_trace.h"

#include <atomic>

#include "obs/trace.h"

namespace seda::obs::detail {

namespace {

/// Process-wide trace id allocator; 0 is reserved for "untraced".
std::atomic<u64> g_next_trace_id{1};

/// 1-in-N sampling tick for the metrics-only arming state, independent of
/// the Stage_span tick so request sampling doesn't skew span sampling.
thread_local unsigned t_req_tick = 0;

}  // namespace

void request_begin_slow(Trace_context& ctx)
{
    const u8 arm = arm_state();
    if (arm == 0) return;
    // A recording captures every request; metrics alone sample 1-in-N (the
    // four phase records per request are as costly as a timed span).
    if ((arm & k_arm_trace) == 0 && ++t_req_tick % stage_sample_stride() != 0) return;
    ctx.trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void request_finish_slow(Trace_context& ctx)
{
    const u64 t_done = now_ticks();
    // Monotonic repair: a request rejected before pickup or flushed on no
    // path leaves zero stamps; collapse the missing phase onto the previous
    // boundary so the decomposition still sums to the end-to-end latency.
    const u64 ts = ctx.t_submit;
    const u64 tp = ctx.t_pickup >= ts ? ctx.t_pickup : ts;
    const u64 tf0 = ctx.t_flush0 >= tp ? ctx.t_flush0 : tp;
    const u64 tf1 = ctx.t_flush1 >= tf0 ? ctx.t_flush1 : tf0;
    const u64 te = t_done >= tf1 ? t_done : tf1;

    const u8 arm = arm_state();
    if ((arm & k_arm_metrics) != 0) {
        const u64 id = ctx.trace_id;
        stage_histogram(Stage::req_queue).record(ticks_to_us(tp - ts), id);
        stage_histogram(Stage::req_window).record(ticks_to_us(tf0 - tp), id);
        stage_histogram(Stage::req_crypto).record(ticks_to_us(tf1 - tf0), id);
        stage_histogram(Stage::req_complete).record(ticks_to_us(te - tf1), id);
    }
    if (Trace_recorder::active()) {
        Trace_recorder::emit(Stage::req_queue, {}, ts, tp);
        Trace_recorder::emit(Stage::req_window, {}, tp, tf0);
        Trace_recorder::emit(Stage::req_crypto, {}, tf0, tf1);
        Trace_recorder::emit(Stage::req_complete, {}, tf1, te);
        Trace_recorder::emit_flow('s', ctx.trace_id, ts);
        Trace_recorder::emit_flow('t', ctx.trace_id, tf0);
        Trace_recorder::emit_flow('f', ctx.trace_id, te);
    }
    ctx.trace_id = 0;  // a stray double-finish becomes a no-op
}

}  // namespace seda::obs::detail
