#include "obs/stage.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"

namespace seda::obs {

namespace {

struct Stage_names {
    const char* metric;
    const char* trace;
    /// Hot-path stages (per-flush or finer) go through 1-in-N sampling;
    /// coarse stages (per window, per layer, per client run) are few
    /// enough to time every occurrence -- a short run would otherwise
    /// sample none of them.
    bool sampled;
};

constexpr std::array<Stage_names, k_stage_count> k_stage_names{{
    {"serve_admit_wait_us", "serve.admit_wait", false},
    {"serve_window_us", "serve.window", false},
    {"serve_batch_requests", "serve.batch", false},
    {"serve_assembly_us", "serve.assembly", true},
    {"serve_flush_write_us", "serve.flush_write", true},
    {"serve_flush_read_us", "serve.flush_read", true},
    {"serve_complete_us", "serve.complete", true},
    {"mem_stage_writes_us", "mem.stage_writes", true},
    {"crypto_baes_us", "crypto.baes", true},
    {"crypto_bulk_mac_us", "crypto.bulk_mac", true},
    {"mem_locate_us", "mem.locate", true},
    {"crypto_verify_us", "crypto.verify", true},
    {"infer_load_us", "infer.load", false},
    {"infer_input_us", "infer.input", false},
    {"infer_layer_us", "infer.layer", false},
    {"loadgen_client_us", "loadgen.client", false},
    {"attack_probe_us", "attack.probe", false},
    {"serve_req_queue_us", "req.queue", true},
    {"serve_req_window_us", "req.window", true},
    {"serve_req_crypto_us", "req.crypto", true},
    {"serve_req_complete_us", "req.complete", true},
}};

// Deterministic 1-in-N metric sampling.  A timed span costs two rdtsc
// reads plus a histogram record (~60ns on this class of hardware), and the
// batching hot path crosses several span sites per flush -- timing every
// one blows the <=2% serve-path budget.  Every Nth construction per thread
// is timed instead: stage histograms stay populated with unbiased interval
// samples while the other N-1 sites cost one branch and one increment.  Trace
// recordings are exempt (an explicit opt-in wants every span).  A bad value
// warns and keeps the default rather than throwing: the first resolution
// runs inside a span constructor, possibly on a pool worker.
unsigned resolve_sample_stride()
{
    constexpr unsigned k_default = 32;
    const char* env = std::getenv("SEDA_OBS_SAMPLE");
    if (env == nullptr || *env == '\0') return k_default;
    if (const auto stride = parse_sample_stride(env)) return *stride;
    std::fprintf(stderr,
                 "seda: SEDA_OBS_SAMPLE=\"%s\" is not a stride (an integer >= 1); using %u\n",
                 env, k_default);
    return k_default;
}

thread_local unsigned t_sample_tick = 0;

bool metric_sample()
{
    return ++t_sample_tick % stage_sample_stride() == 0;
}

}  // namespace

namespace detail {

std::atomic<u8> g_span_arm{k_arm_unresolved};

/// Reads the arming word, resolving it on first use (the trace bit is kept
/// current by the recorder via fetch_or/fetch_and; resolution recomputes
/// both bits from their sources of truth, so a concurrent first use is
/// benign).  Resolving also triggers enabled()'s tick calibration.
u8 arm_state()
{
    u8 arm = g_span_arm.load(std::memory_order_relaxed);
    if (arm & k_arm_unresolved) {
        arm = static_cast<u8>((enabled() ? k_arm_metrics : 0) |
                              (Trace_recorder::active() ? k_arm_trace : 0));
        g_span_arm.store(arm, std::memory_order_relaxed);
    }
    return arm;
}

}  // namespace detail

unsigned stage_sample_stride()
{
    static const unsigned stride = resolve_sample_stride();
    return stride;
}

std::optional<unsigned> parse_sample_stride(std::string_view text)
{
    unsigned v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() || v == 0) return std::nullopt;
    return v;
}

const char* stage_metric_name(Stage s)
{
    return k_stage_names[static_cast<std::size_t>(s)].metric;
}

const char* stage_trace_name(Stage s)
{
    return k_stage_names[static_cast<std::size_t>(s)].trace;
}

Histogram stage_histogram(Stage s)
{
    // One registration pass, then handle copies forever (thread-safe via
    // the static-local guard; handles are unarmed when observability is
    // off, which the registry decides at registration time).
    static const std::array<Histogram, k_stage_count> handles = [] {
        std::array<Histogram, k_stage_count> h;
        for (std::size_t i = 0; i < k_stage_count; ++i)
            h[i] = Metrics_registry::instance().histogram(k_stage_names[i].metric);
        return h;
    }();
    return handles[static_cast<std::size_t>(s)];
}

void Stage_span::arm(std::string_view detail)
{
    const u8 a = seda::obs::detail::arm_state();
    const bool trace = (a & seda::obs::detail::k_arm_trace) != 0;
    const bool metric =
        (a & seda::obs::detail::k_arm_metrics) != 0 &&
        (trace || !k_stage_names[static_cast<std::size_t>(stage_)].sampled ||
         metric_sample());
    if (!metric && !trace) return;
    flags_ = static_cast<u8>((metric ? 1 : 0) | (trace ? 2 : 0));
    if (trace && !detail.empty()) detail_ = detail;
    t0_ = now_ticks();
}

void Stage_span::finish()
{
    const u64 t1 = now_ticks();
    if (flags_ & 1) stage_histogram(stage_).record(ticks_to_us(t1 - t0_));
    if (flags_ & 2) Trace_recorder::emit(stage_, detail_, t0_, t1);
}

void Phase_timer::arm()
{
    const u8 a = detail::arm_state();
    const bool trace = (a & detail::k_arm_trace) != 0;
    const bool metric = (a & detail::k_arm_metrics) != 0 && (trace || metric_sample());
    if (!metric && !trace) return;
    flags_ = static_cast<u8>((metric ? 1 : 0) | (trace ? 2 : 0));
    last_ = now_ticks();
}

void Phase_timer::record_lap(Stage s)
{
    const u64 t = now_ticks();
    if (flags_ & 1) stage_histogram(s).record(ticks_to_us(t - last_));
    if (flags_ & 2) Trace_recorder::emit(s, {}, last_, t);
    last_ = t;
}

}  // namespace seda::obs
