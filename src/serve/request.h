// Request/response types of the secure serving layer.
//
// One Request is one protected-unit operation issued by one client of one
// tenant: a protected write (encrypt + MAC + VN bump in the tenant's own
// Secure_memory) or a protected read (verify + decrypt).  The serving
// pipeline moves Requests by value through the admission queue -- they are
// move-only, carrying an optional std::promise -- so a request's payload is
// owned end to end and workers never chase caller lifetimes.
//
// A request also carries its own outcome.  Batch_scheduler::dispatch
// records it (the status, a read's plaintext in `payload`, or the
// exception of a rejected request) and serve::deliver() later hands it to
// the promise, so the thread that settles promises need not be the one
// that ran the crypto.
//
// Verification *failures* are results, not errors (common/error.h): a
// tampered or replayed unit completes its Request with the corresponding
// Verify_status.  Malformed requests (bad tenant, misaligned address,
// wrong payload size) are usage errors and throw -- at submit() where
// possible, else as an exception delivered through the promise.
#pragma once

#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/secure_memory.h"
#include "obs/request_trace.h"

namespace seda::serve {

enum class Op : u8 { write, read };

[[nodiscard]] constexpr const char* to_string(Op op)
{
    switch (op) {
        case Op::write: return "write";
        case Op::read: return "read";
    }
    return "?";
}

/// Completion of one Request.  Writes complete with status ok and an empty
/// payload; reads carry the decrypted unit on ok and an empty payload on
/// mac_mismatch / replay_detected.
struct Response {
    core::Verify_status status = core::Verify_status::ok;
    std::vector<u8> payload;
};

/// One queued operation.  (tenant_id, client_id, seq) identify the request
/// for tracing; addr/layer/fmap/blk are the positional-MAC context the
/// tenant's Secure_memory binds (Alg. 2).
struct Request {
    u32 tenant_id = 0;
    u32 client_id = 0;
    u64 seq = 0;  ///< per-client sequence number (client-assigned)
    Op op = Op::write;
    Addr addr = 0;
    /// Write plaintext (one unit); a read's plaintext once dispatched.
    std::vector<u8> payload;
    u32 layer_id = 0;
    u32 fmap_idx = 0;
    u32 blk_idx = 0;

    /// Fulfilled (value or exception) by deliver(); nullopt =
    /// fire-and-forget (the bench path).  Server::submit installs one.
    std::optional<std::promise<Response>> reply;

    /// Outcome recorded by dispatch: the exception of a rejected request,
    /// else its status (and, for an ok read, the plaintext in `payload`).
    std::variant<core::Verify_status, std::exception_ptr> outcome;

    /// Set by Server::submit; a zero value means "no timestamp" and the
    /// dispatcher records no latency sample (deterministic bench replays).
    std::chrono::steady_clock::time_point enqueued_at{};

    /// Request-scoped trace stamps (obs/request_trace.h); trace_id == 0
    /// (the untraced/unsampled case) makes every stamp a no-op.
    obs::Trace_context trace;
};

}  // namespace seda::serve
