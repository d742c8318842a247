// Embedded HTTP scrape endpoint: the live telemetry plane's pull surface.
//
// A deliberately tiny dependency-free HTTP/1.1 server -- one background
// thread, a poll loop, serial connection handling, `Connection: close` on
// every response -- sized for a scraper hitting it a few times a second,
// not for serving traffic.  A peer gets 2 s for its whole request head,
// so a client trickling bytes is cut off (400) instead of holding every
// scrape behind it.  SECURITY: binds 127.0.0.1 ONLY (never
// INADDR_ANY) and is opt-in via seda_cli --listen / SEDA_OBS_LISTEN; the
// telemetry plane must not become a remote attack surface of the very
// system whose integrity the SeDA pipeline defends.
//
// Endpoints (GET/HEAD):
//   /metrics       Prometheus text exposition (obs::write_prometheus)
//   /metrics.json  JSON snapshot (obs::write_json)
//   /healthz       serve lifecycle state (obs/health.h): 200 while
//                  serving/draining, 503 while idle/stopped
//   /flight        non-consuming flight-recorder dump (obs/trace.h)
//   /              plain-text index of the above
//
// Determinism contract: everything served here is timing-bound telemetry
// flowing over a socket -- never stdout -- so the byte-identical --json
// contracts are untouched by an enabled exporter (CI proves it).  The
// exporter itself works even under SEDA_OBS=0 (scrapes are just empty;
// /healthz still answers), matching the health plane's "liveness is not
// telemetry" rule.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace seda::obs {

struct Http_exporter_config {
    u16 port = 0;                         ///< 0 = ephemeral (see Http_exporter::port())
    std::size_t max_request_bytes = 8192; ///< oversize requests get 400 and a close
    int poll_interval_ms = 50;            ///< stop-flag latency of the accept loop
};

class Http_exporter {
public:
    explicit Http_exporter(Http_exporter_config cfg = {});
    ~Http_exporter();  ///< stop()s if still running

    Http_exporter(const Http_exporter&) = delete;
    Http_exporter& operator=(const Http_exporter&) = delete;

    /// Binds 127.0.0.1:port, starts listening, and spawns the serving
    /// thread.  Throws Seda_error if the port cannot be bound.  Must be
    /// called at most once.
    void start();

    /// Stops the serving thread and closes the socket.  Terminal and
    /// idempotent; in-flight responses finish first.
    void stop();

    /// The bound port (resolves an ephemeral request; valid after start()).
    [[nodiscard]] u16 port() const { return port_; }

    [[nodiscard]] bool running() const { return running_; }

    /// Requests served so far (any status; the serving thread owns it --
    /// read it after stop() for an exact count).
    [[nodiscard]] u64 requests_served() const { return requests_served_; }

private:
    void serve_loop();
    void handle_connection(int fd);

    Http_exporter_config cfg_;
    int listen_fd_ = -1;
    u16 port_ = 0;
    bool running_ = false;
    u64 requests_served_ = 0;
    // Reused across requests so a steady scrape stays off the allocator
    // once warm (the same discipline as Metrics_registry::scrape_into).
    std::string request_;
    std::string body_;
    std::string response_;
    struct Impl;
    Impl* impl_;
};

/// A SEDA_OBS_LISTEN value as a port: the whole string as a decimal
/// integer in 1-65535, or nullopt (empty, signed, spaces, hex, trailing
/// junk, 0, or out of range).
[[nodiscard]] std::optional<u16> parse_listen_port(std::string_view text);

/// The port requested by the SEDA_OBS_LISTEN environment variable, or 0
/// when unset/empty.  A value parse_listen_port rejects throws Seda_error.
[[nodiscard]] u16 listen_port_from_env();

}  // namespace seda::obs
