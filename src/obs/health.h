// Process-wide server health lifecycle, backing the /healthz endpoint.
//
// serve::Server reports its transitions here (start/drain/stop); the HTTP
// exporter reads the folded state.  Deliberately NOT gated on
// obs::enabled(): health is an operational liveness signal, not telemetry,
// so /healthz keeps answering under SEDA_OBS=0.  The counters are process-wide like every registry metric -- multiple live
// Servers fold into one state (serving while any serves, draining while
// any drains).
#pragma once

#include "common/types.h"

namespace seda::obs {

enum class Health_state : u8 {
    idle,      ///< no server has started yet
    serving,   ///< at least one server is live
    draining,  ///< at least one live server is inside drain()
    stopped    ///< servers existed and all have stopped
};

[[nodiscard]] const char* to_string(Health_state s);

/// Lifecycle hooks, called by serve::Server.  Cheap (relaxed atomics) and
/// safe from any thread; paired calls must balance.
void health_server_started();
void health_server_stopped();
void health_drain_begin();
void health_drain_end();

/// The folded process state (see Health_state).
[[nodiscard]] Health_state health_state();

/// Servers currently live (started and not yet stopped).
[[nodiscard]] u64 health_live_servers();

/// Servers ever started (monotonic; distinguishes idle from stopped).
[[nodiscard]] u64 health_started_total();

/// Resets the lifecycle counters (tests only; never call with live servers).
void health_reset_for_test();

}  // namespace seda::obs
