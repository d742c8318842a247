// serve::Server -- the multi-tenant request front end.
//
// Wiring (one arrow = one thread hop):
//
//   clients ──submit()──▶ Admission_queue ──pop_batch()──▶ scheduler thread
//      ▲                  (lock-free ring)                   │ Batch_scheduler
//      │                                                     ▼
//      │                                       per-tenant Secure_session
//      │                                       (bulk crypto fanned across
//      │                                        the shared Thread_pool)
//      │                                                     │ dispatched
//      │                                                     ▼ window
//      └──futures settled──── completion drainer ◀── FIFO of windows
//                             (one task at a time on the Thread_pool)
//
// Lifecycle: construct → start() → traffic → drain() (everything submitted
// so far has completed) → stop() (close the queue, finish what was
// accepted, join).  stop() is terminal and idempotent; the destructor
// calls it.  Submissions racing stop() either complete normally or throw
// -- no request is silently dropped while holding a live future.
//
// Tenant churn: add_tenant() and evict_tenant() work on the live server.
// The tenant set is a Tenant_table (tenant.h): adds are visible to the
// scheduler immediately, and eviction tombstones the slot -- in-flight
// requests of an evicted tenant complete normally, while new submits are
// rejected with the counted stats().evicted_rejects status.
//
// Roles per thread:
//   * client threads call submit(), which takes no lock: tenant lookups,
//     the accepting flag and the submitted count are atomics, and the ring
//     is claimed with one CAS.  A client sleeps only on a full ring (the
//     backpressure a closed-loop client rides) and on its futures.
//   * ONE scheduler thread owns batching: it pops a window, dispatches it
//     (every flush under 128 units runs on it; on larger flushes it claims
//     chunks alongside the pool workers), merges the window's stats, and
//     appends the window to the completion FIFO.  It settles no promise.
//   * the completion drainer is a task on the same Thread_pool, posted when
//     the FIFO turns non-empty with no drainer running, so at most one runs
//     at a time.  It delivers windows in dispatch order (serve::deliver)
//     and counts each one completed only after delivering it, so when
//     drain() returns every earlier future is ready.  Pool workers
//     otherwise only run chunk crypto.
//
// Stats discipline: the scheduler accumulates each dispatch into a local
// delta and merges it under the mutex before the window enters the
// completion FIFO, so a future that is ready implies stats() counts its
// request; stats() snapshots under the same mutex.  Deterministic fields
// vs timing fields are documented in serve_stats.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/secure_memory.h"
#include "runtime/thread_pool.h"
#include "serve/admission_queue.h"
#include "serve/batch_scheduler.h"
#include "serve/request.h"
#include "serve/serve_stats.h"
#include "serve/tenant.h"

namespace seda::serve {

struct Server_config {
    std::size_t tenants = 1;
    std::size_t workers = 0;          ///< crypto pool size (0 = hardware)
    std::size_t queue_capacity = 1024;
    std::size_t max_batch = 256;      ///< coalescing cap per dispatch
    core::Secure_mem_config mem = {}; ///< per-tenant memory configuration
};

class Server {
public:
    /// Builds the pool, the tenants (keys derived from the master pair),
    /// and the queue.  Does not start serving until start().
    Server(std::span<const u8> master_enc, std::span<const u8> master_mac,
           Server_config cfg = {});
    ~Server();  ///< stop()s if still running

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Spawns the scheduler thread.  Must be called exactly once.
    void start();

    /// Validates, timestamps and enqueues `req` without taking a lock
    /// (blocking only when the queue is full -- the backpressure a
    /// closed-loop client rides), returning the future its completion
    /// fulfills.  Throws Seda_error on a malformed request or when the
    /// server is not accepting.
    [[nodiscard]] std::future<Response> submit(Request req);

    /// Blocks until every request submitted so far has completed.  Other
    /// threads may keep submitting; their requests need a later drain().
    void drain();

    /// Closes the queue (new submits fail), completes everything already
    /// accepted, joins the scheduler and waits for the completion drainer.
    /// Terminal and idempotent.
    void stop();

    /// Adds a tenant to the LIVE server (before or after start()) and
    /// returns its id: keys derive from the same master pair, and requests
    /// for it are admittable as soon as this returns.
    u32 add_tenant();

    /// Evicts a tenant from the live server: requests already admitted
    /// complete normally (the tenant's memory and keys stay alive), while
    /// new submits for it throw and count as stats().evicted_rejects.
    /// Throws Seda_error for an unknown id; idempotent on a known one.
    void evict_tenant(u32 id);

    [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
    [[nodiscard]] Tenant& tenant(u32 id);
    [[nodiscard]] const Server_config& config() const { return cfg_; }

    /// Snapshot of the accumulated stats (consistent: taken under the same
    /// lock the scheduler merges under).
    [[nodiscard]] Serve_stats stats() const;

private:
    void scheduler_loop();
    /// The completion drainer (a pool task): delivers the FIFO's windows in
    /// order until it is empty, then clears draining_.
    void deliver_windows();
    /// Adds one dispatch delta to the per-tenant labeled registry series
    /// (scheduler thread only; handles are created lazily per tenant).
    void export_tenant_metrics(const Serve_stats& delta);

    /// Cached labeled-series handles for one tenant (obs/metrics.h).
    struct Tenant_series {
        obs::Counter writes, reads, ok, mac_mismatch, replay_detected, rejected, bytes;
    };

    Server_config cfg_;
    runtime::Thread_pool pool_;     ///< shared by every tenant session
    std::vector<u8> master_enc_;    ///< retained for live add_tenant() derivation
    std::vector<u8> master_mac_;
    Tenant_table tenants_;
    Admission_queue queue_;
    Batch_scheduler scheduler_;
    std::vector<Tenant_series> tenant_series_;  ///< scheduler thread only

    std::atomic<bool> accepting_{false};  ///< between start() and stop()
    std::atomic<u64> submitted_{0};       ///< accepted requests
    std::atomic<u64> completed_{0};       ///< delivered requests
    std::atomic<u64> evicted_rejects_{0};

    mutable std::mutex mutex_;
    std::condition_variable all_done_;  ///< completed_ grew, or the drainer went idle
    Serve_stats stats_;                 ///< merged per dispatch, under mutex_
    /// The completion FIFO: dispatched windows, back to back, in dispatch
    /// order; under mutex_.  The drainer swaps it out whole, so three
    /// buffers (this, delivering_ and the scheduler's window) circulate.
    std::vector<Request> done_;
    std::vector<Request> delivering_;  ///< the drainer's batch; drainer only
    bool draining_ = false;  ///< a drainer is posted or running; under mutex_
    bool started_ = false;   ///< under mutex_
    bool stopped_ = false;   ///< under mutex_
    std::thread scheduler_thread_;
};

}  // namespace seda::serve
