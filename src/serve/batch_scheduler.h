// Batching scheduler: turns a drained run of per-request traffic into
// per-tenant bulk Secure_session calls.
//
// This is the piece that keeps the PR 1-3 crypto substrate fed: a single
// 64 B request pays the whole per-call setup and a lone MAC chain, while a
// coalesced batch advances every unit's MAC in the same bulk AES calls and
// every pad through the bulk CTR gear.  The scheduler's contract:
//
//   * per-tenant CONFLICT ORDER IS PRESERVED -- within one tenant's
//     admission-ordered stream, operations on DIFFERENT addresses commute
//     (and so do reads of the same address), so the scheduler accumulates
//     one pending batch per op per tenant and only flushes when a request
//     touches an address the OPPOSITE pending batch already holds
//     (write-after-pending-read or read-after-pending-write).  Random op
//     mixes therefore coalesce into two bulk calls per tenant per window
//     instead of one per op flip, and read-your-writes still holds for any
//     in-order producer.  In-batch write-after-write is handled by
//     stage_writes's supersede rule, in admission order.
//   * tenants are independent -- their memories are disjoint, so the
//     per-tenant batches of one run may dispatch in any order without
//     observable difference; we go in tenant-id order for determinism.
//   * results are scheduling-independent -- which requests share a batch
//     affects only speed, never payloads or statuses (Secure_session's
//     batch path is bit-identical to serial I/O).
//
// One flush, one completion: every segment, whatever its op, goes through
// flush() -- one session call (which pulls the Dram_tap and records the
// flush flight event; a read decrypts straight into each request's own
// payload), one clock read at its end (every request's completion time,
// and the traced requests' flush stamp), then complete() per request in
// admission order.  complete() counts the outcome, records the latency
// from the request's submit stamp to that flush end, finishes the trace
// and stores the status in the request; it settles no promise.  deliver() does that afterwards, for a whole run in
// run order, on whichever thread the caller picks -- the server hands it
// to a pool worker, so the scheduler goes straight on to the next window.
//
// Failure containment: a request the bulk path rejects outright (e.g. a
// read of a never-written unit throws Seda_error before any crypto) must
// not take the batch -- or the server -- down.  A rejected session call
// changed nothing, so flush() re-runs each request of the segment as a
// segment of one through the same code, recording a `fallback` flight
// event per request.  A request that still throws alone keeps the
// exception as its outcome and counts as `rejected`; everyone else
// proceeds normally.
//
// Thread-safety: one dispatch() at a time (the server's scheduler thread);
// the internal staging vectors are reused across calls.
#pragma once

#include <array>
#include <exception>
#include <span>
#include <vector>

#include "core/secure_memory.h"
#include "serve/request.h"
#include "serve/serve_stats.h"
#include "serve/tenant.h"

namespace seda::serve {

class Batch_scheduler {
public:
    /// `tenants` must outlive the scheduler; tenant_id resolves through it,
    /// so tenants added to a live server are dispatchable as soon as add()
    /// returns, and tombstoned tenants keep completing what was admitted.
    explicit Batch_scheduler(Tenant_table& tenants);

    /// Dispatches one drained run: groups by tenant (order preserved),
    /// coalesces maximal same-op segments into bulk session calls, records
    /// every request's outcome in the request, and accumulates into
    /// `stats` (whose tenants vector is resized to the tenant count).
    /// The promises stay unsettled until deliver(run).
    void dispatch(std::span<Request> run, Serve_stats& stats);

private:
    /// Flushes the pending batch of `op`.  The two pending batches are
    /// address-disjoint by construction, so they commute: a conflict only
    /// has to flush the OPPOSITE one, and the same-op batch keeps
    /// accumulating across it.
    void flush_pending(Tenant& tenant, Op op, Serve_stats& stats);
    /// One session call for a same-op segment, then complete() per request.
    /// When the call throws Seda_error, re-runs each request as a segment
    /// of one (`retry`); a request that throws on retry is reject()ed.
    void flush(Tenant& tenant, Op op, std::span<Request* const> segment,
               Serve_stats& stats, bool retry = false);
    /// Counts `req`'s outcome and records it in the request (an ok read's
    /// plaintext is already in its payload).  `t_done` is the end of the
    /// flush that completed it (obs::now_ticks()).
    void complete(Request& req, core::Verify_status status, u64 t_done, Serve_stats& stats);
    void reject(Request& req, std::exception_ptr error, u64 t_done, Serve_stats& stats);
    /// Submit-to-`t_done` latency into Serve_stats plus the per-tenant
    /// labeled registry histogram (which carries the request's trace id as
    /// an exemplar when sampled).
    void record_latency(const Request& req, u64 t_done, Serve_stats& stats);

    Tenant_table& tenants_;
    /// Cached serve_tenant_latency_us{tenant=N} handles, scheduler thread
    /// only, grown lazily (unarmed until first use, like all obs handles).
    std::vector<obs::Histogram> tenant_latency_;

    // Staging scratch reused across dispatches (cleared, not freed).
    std::vector<std::vector<Request*>> per_tenant_;
    /// One tenant's pending batch per op, indexed by Op, with its flat
    /// address list (linear contains()): windows hold a few dozen
    /// addresses, where a cache-line scan beats a node-allocating hash set.
    struct Pending {
        std::vector<Request*> requests;
        std::vector<Addr> addrs;
    };
    std::array<Pending, 2> pending_;
    std::vector<core::Secure_memory::Unit_write> writes_;
    std::vector<core::Secure_memory::Unit_read> reads_;
};

/// Settles every promise in `run` with the outcome dispatch() recorded, in
/// run order: the exception of a rejected request, else its status plus,
/// for an ok read, the plaintext moved out of its payload.  Requests
/// without a promise are skipped.  One call per dispatched run, after
/// dispatch() has returned; any thread.
void deliver(std::span<Request> run);

}  // namespace seda::serve
