// Per-thread event log with two renderers: the chrome://tracing span
// capture and the always-on flight recorder.
//
// Every thread that records gets one log, registered once and numbered by
// its first event of either kind; that number is the chrome `tid` and the
// flight `thread`, so a detection in the flight dump points at the same
// thread's spans in the trace.  The log holds two stores because their
// retention differs:
//
// * Trace capture.  When a recording is active every Stage_span/Phase_timer
//   appends a "complete" (ph:"X") event; write_json() drains every thread
//   into one chrome://tracing JSON object loadable by chrome://tracing or
//   Perfetto.  The first k_max_events_per_thread events per thread are kept
//   and overflow is counted, so a runaway run stays bounded.  Tracing is
//   independent of the metrics switch: `--trace-out` works even under
//   SEDA_OBS=0.
// * Flight ring.  Recent pipeline events (flush batches, coalescing
//   windows, fallback dispatches, fault injections, detections), cheap
//   enough to leave running in production -- one event per FLUSH, not per
//   request, appended under the log's uncontended mutex into a fixed ring
//   that overwrites its oldest entry.  When a detection fires (MAC mismatch
//   / replay on the serve or infer paths) the recorder appends a `detect`
//   event and, if an auto-dump path is armed (seda_cli --flight-out),
//   immediately writes every ring to that file: the forensic record of the
//   bus-level activity surrounding the detection, per tenant.  Dumps are
//   non-consuming and deterministic for a quiesced process: events are
//   merged across threads and ordered by (ticks, thread, seq).  Gated on
//   obs::enabled().
//
// With SEDA_DISABLE_OBS everything compiles to a no-op.  Output goes only
// to named files / streams, never stdout.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/types.h"
#include "obs/stage.h"

namespace seda::obs {

class Trace_recorder {
public:
    /// Events per thread before overflow counting kicks in.
    static constexpr std::size_t k_max_events_per_thread = std::size_t{1} << 16;

    /// Arms capture process-wide (idempotent).  With SEDA_DISABLE_OBS this
    /// is a no-op and active() stays false.
    static void start();

    [[nodiscard]] static bool active();

    /// Disarms capture, drains every thread's buffer (in first-event order
    /// per thread), and writes one chrome://tracing JSON object.  May be
    /// followed by another start(); events are consumed.
    static void write_json(std::ostream& os);

    /// Events discarded because a thread hit its buffer cap.
    [[nodiscard]] static u64 dropped();

    /// Appends one span (called from Stage_span/Phase_timer destructors;
    /// cheap no-op when no recording is active).
    static void emit(Stage s, std::string_view detail, u64 t0_ticks, u64 t1_ticks);

    /// Appends one flow event (ph "s" start / "t" step / "f" finish).  The
    /// three phases of one flow share `id`; chrome://tracing draws an arrow
    /// through the slices enclosing each phase's timestamp.  The request
    /// tracer links admit -> flush -> complete this way.
    static void emit_flow(char phase, u64 id, u64 t_ticks);
};

enum class Flight_kind : u8 {
    window,       ///< one scheduler coalescing window (n = requests)
    flush_write,  ///< one bulk write batch through a session (n = units)
    flush_read,   ///< one bulk read batch through a session (n = units)
    fallback,     ///< one request retried alone after a bulk reject
    inject,       ///< a campaign fault armed against DRAM (n = fault kind)
    detect,       ///< a verification failure (status carries the outcome)
    infer_detect  ///< a unit failure observed by the inference replay layer
};

[[nodiscard]] const char* to_string(Flight_kind k);

/// Tenant tag for events with no tenant attribution.
inline constexpr u32 k_flight_no_tenant = 0xFFFFFFFFu;

class Flight_recorder {
public:
    /// Events retained per thread before the ring overwrites its oldest.
    static constexpr std::size_t k_ring_capacity = 1024;

    /// Appends one event to this thread's ring (no-op unless obs live).
    static void record(Flight_kind k, u32 tenant, u64 addr, u64 n, u64 bytes);

    /// Appends a detection event (with its exact attribution coordinates
    /// and Verify_status code) and fires the armed auto-dump, if any.
    static void detect(Flight_kind k, u32 tenant, u64 addr, u32 layer, u32 fmap, u32 blk,
                       u8 status);

    /// Arms (or, with "", disarms) the automatic dump-on-detection path.
    static void arm_auto_dump(std::string path);

    /// Detection events recorded so far (monotonic, survives dumps).
    static u64 detections();

    /// Writes every ring as one JSON object; returns the event count.
    /// Non-consuming: dumping twice with no traffic in between yields
    /// byte-identical output.
    static u64 dump(std::ostream& os);

    /// dump() to a file; returns false if the file cannot be opened.
    static bool dump_flight(const std::string& path);

    /// Clears every ring and the detection count (tests/benches only).
    static void reset();
};

}  // namespace seda::obs
