// Named pipeline stages and the RAII span timers that feed them.
//
// Each stage owns one registry histogram (stage_metric_name) and one
// chrome://tracing event name (stage_trace_name).  A Stage_span times a
// scope; a Phase_timer times consecutive phases of one function sharing the
// boundary clock reads.  Both check their arming flags before touching the
// clock, so with observability disabled (SEDA_OBS=0) a span site costs one
// relaxed load and a predictable branch.
//
// Metric recording on hot-path stages (per-flush or finer) samples every
// Nth span construction per thread (stage_sample_stride, SEDA_OBS_SAMPLE,
// default 32): the clock reads and histogram records are the dominant cost
// on the serve hot path, and unbiased 1-in-N interval samples keep the
// histograms faithful at ~1/N the price.  Coarse stages (per window, per
// layer, per client run) are timed on every occurrence, and an active
// trace recording times every span regardless.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace seda::obs {

/// The instrumented pipeline stages (docs/OBSERVABILITY.md catalogs where
/// each is measured).
enum class Stage : u8 {
    // serve: front end and batching scheduler
    admit_wait,      ///< submit() -> scheduler pickup, per request
    window,          ///< one Admission_queue::pop_batch coalescing window
    batch_requests,  ///< requests per dispatched window (a count, not a time)
    assembly,        ///< Batch_scheduler per-tenant bucketing
    flush_write,     ///< one coalesced write batch through the session
    flush_read,      ///< one coalesced read batch through the session
    complete,        ///< outcome recording per flush (counters, latency records)
    // core: secure-memory bulk phases (cover the sharded session's bulk
    // calls too -- a session-level span would just repeat flush_write/read)
    stage_writes,  ///< validate + VN bump + slot staging
    baes,          ///< base-OTP batch + per-slot B-AES
    bulk_mac,      ///< bulk positional CMAC (write MACs / read expected MACs)
    locate,        ///< read-side validate + locate + VN fetch
    verify,        ///< read-side MAC compare + decrypt
    // infer: trace replay
    infer_load,   ///< weight load + activation prefill staging
    infer_input,  ///< per-inference fresh-input staging
    infer_layer,  ///< one layer's trace replay
    // loadgen
    client,  ///< one closed-loop client's whole run
    // attack campaign
    attack_probe,  ///< one prober's whole fault sequence against its tenant
    // serve: per-request critical-path decomposition (recorded by the
    // request trace, not by Stage_span sites -- see obs/request_trace.h)
    req_queue,     ///< submit -> scheduler pickup for one traced request
    req_window,    ///< pickup -> its flush begins (coalescing window share)
    req_crypto,    ///< inside the session flush (bulk crypto share)
    req_complete,  ///< flush end -> its outcome recorded
    count_
};

inline constexpr std::size_t k_stage_count = static_cast<std::size_t>(Stage::count_);

[[nodiscard]] const char* stage_metric_name(Stage s);
[[nodiscard]] const char* stage_trace_name(Stage s);

/// Cached process-wide registry handle for a stage's histogram (unarmed
/// when observability is off).
[[nodiscard]] Histogram stage_histogram(Stage s);

/// The 1-in-N metric sampling stride for Stage_span / Phase_timer
/// (SEDA_OBS_SAMPLE, default 32; trace recordings capture every span).  A
/// value parse_sample_stride rejects keeps the default, with one warning on
/// stderr.
[[nodiscard]] unsigned stage_sample_stride();

/// A SEDA_OBS_SAMPLE value as a stride: the whole string as a decimal
/// unsigned >= 1, or nullopt (empty, signed, trailing junk, 0, or too big
/// for an unsigned).
[[nodiscard]] std::optional<unsigned> parse_sample_stride(std::string_view text);

namespace detail {

/// Process-wide span arming word: bit 0 = metrics runtime-enabled, bit 1 =
/// trace recording active, bit 7 = not resolved yet (first span resolves it
/// from SEDA_OBS / the trace recorder).  The constructors test it with one
/// inline relaxed load so a fully disarmed site costs a load and a
/// predictable branch -- no out-of-line call.
inline constexpr u8 k_arm_metrics = 1;
inline constexpr u8 k_arm_trace = 2;
inline constexpr u8 k_arm_unresolved = 0x80;
extern std::atomic<u8> g_span_arm;

/// Reads the arming word, resolving it from SEDA_OBS / the trace recorder
/// on first use.  Shared by the span timers and the request tracer.
[[nodiscard]] u8 arm_state();

}  // namespace detail

/// Times a scope into its stage's histogram and (when a trace recording is
/// active) emits a chrome://tracing span.  `detail` is appended to the
/// trace event name ("infer.layer:conv1"); it is only copied when tracing.
class Stage_span {
public:
    explicit Stage_span(Stage s) : Stage_span(s, {}) {}
    Stage_span(Stage s, std::string_view detail) : stage_(s)
    {
        if (detail::g_span_arm.load(std::memory_order_relaxed) != 0) arm(detail);
    }
    ~Stage_span()
    {
        if (flags_ != 0) finish();
    }
    Stage_span(const Stage_span&) = delete;
    Stage_span& operator=(const Stage_span&) = delete;

private:
    void arm(std::string_view detail);
    void finish();

    u64 t0_ = 0;
    Stage stage_;
    u8 flags_ = 0;  ///< bit 0: record histogram, bit 1: emit trace span
    std::string detail_;
};

/// Times consecutive phases of one function: each lap() records the
/// interval since the previous mark into the named stage, so N adjacent
/// phases cost N+1 clock reads instead of 2N.
class Phase_timer {
public:
    Phase_timer()
    {
        if (detail::g_span_arm.load(std::memory_order_relaxed) != 0) arm();
    }
    void lap(Stage s)
    {
        if (flags_ != 0) record_lap(s);
    }

private:
    void arm();
    void record_lap(Stage s);

    u64 last_ = 0;
    u8 flags_ = 0;
};

}  // namespace seda::obs
