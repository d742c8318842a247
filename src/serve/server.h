// serve::Server -- the multi-tenant request front end.
//
// Wiring (one arrow = one thread hop):
//
//   clients ──submit()──▶ Admission_queue ──pop_batch()──▶ scheduler thread
//                                                             │ Batch_scheduler
//                                                             ▼
//                                               per-tenant Secure_session
//                                               (bulk crypto fanned across
//                                                the shared Thread_pool)
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
// Roles per thread: any number of client threads block in submit() (queue
// backpressure) and on their futures (closed-loop); ONE scheduler thread
// owns batching and stats and runs every flush under 128 units itself; on
// larger flushes it claims chunks alongside the pool workers, which only
// ever run chunk crypto.
//
// Stats discipline: the scheduler accumulates each dispatch into a local
// delta and merges under the mutex, so submitters never contend with the
// crypto phase; stats() snapshots under the same mutex.  Deterministic
// fields vs timing fields are documented in serve_stats.h.
#pragma once

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
    /// Latency-bounded coalescing: a partial window lingers up to this long
    /// for more arrivals before dispatching (0 = dispatch immediately).
    /// Counters stay deterministic either way; only batching changes.
    std::size_t max_wait_us = 0;
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

    /// Validates, timestamps and enqueues `req` (blocking when the queue
    /// is full -- the backpressure a closed-loop client rides), returning
    /// the future its completion fulfills.  Throws Seda_error on a
    /// malformed request or when the server is not accepting.
    [[nodiscard]] std::future<Response> submit(Request req);

    /// Blocks until every request submitted so far has completed.  Other
    /// threads may keep submitting; their requests need a later drain().
    void drain();

    /// Closes the queue (new submits fail), completes everything already
    /// accepted, and joins the scheduler.  Terminal and idempotent.
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
    std::thread scheduler_thread_;
    std::vector<Tenant_series> tenant_series_;  ///< scheduler thread only

    mutable std::mutex mutex_;
    std::condition_variable all_done_;
    Serve_stats stats_;        ///< merged per dispatch, under mutex_
    u64 submitted_ = 0;        ///< accepted requests, under mutex_
    u64 completed_ = 0;        ///< fulfilled requests, under mutex_
    bool started_ = false;
    bool stopped_ = false;
};

}  // namespace seda::serve
