#include "serve/server.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include <string>

#include "common/error.h"
#include "obs/health.h"
#include "obs/request_trace.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace seda::serve {

namespace {

/// Requests admitted but not yet completed (process-wide: every Server in
/// the process feeds the same gauge, like all registry metrics).
const obs::Gauge& inflight_gauge()
{
    static const obs::Gauge g =
        obs::Metrics_registry::instance().gauge("serve_inflight_requests");
    return g;
}

}  // namespace

Server::Server(std::span<const u8> master_enc, std::span<const u8> master_mac,
               Server_config cfg)
    : cfg_(cfg),
      pool_(cfg.workers),
      master_enc_(master_enc.begin(), master_enc.end()),
      master_mac_(master_mac.begin(), master_mac.end()),
      queue_(cfg.queue_capacity),
      scheduler_(tenants_)
{
    require(cfg_.tenants >= 1, "serve: need at least one tenant");
    // The scheduler thread would throw on a zero cap at start(), out of a
    // std::thread, which terminates the process.
    require(cfg_.max_batch >= 1, "serve: max_batch must be >= 1");
    // Latencies are tick deltas: calibrate the tick rate here (a ~1 ms spin,
    // once per process) rather than on the scheduler thread mid-flush.
    (void)obs::ticks_to_us(0);
    for (std::size_t i = 0; i < cfg_.tenants; ++i) add_tenant();
}

Server::~Server() { stop(); }

void Server::start()
{
    std::lock_guard lock(mutex_);
    require(!started_, "serve: start() may only be called once");
    require(!stopped_, "serve: cannot start() a stopped server");
    started_ = true;
    // Health transitions are NOT gated on obs::enabled(): /healthz is a
    // liveness signal and must keep answering under SEDA_OBS=0.
    obs::health_server_started();
    scheduler_thread_ = std::thread([this] { scheduler_loop(); });
    accepting_.store(true, std::memory_order_release);
}

std::future<Response> Server::submit(Request req)
{
    if (!tenants_.accepting(req.tenant_id)) {
        // Evicted is a *counted* rejection (deterministic given the submit
        // stream); an id that never existed is a plain usage error.
        if (tenants_.find(req.tenant_id) != nullptr) {
            evicted_rejects_.fetch_add(1, std::memory_order_relaxed);
            if (obs::enabled()) {
                static const obs::Counter evicted =
                    obs::Metrics_registry::instance().counter("serve_evicted_rejects_total");
                evicted.add(1);
            }
            throw Seda_error("serve: tenant has been evicted");
        }
        throw Seda_error("serve: request names an unknown tenant");
    }
    const Bytes unit_bytes = cfg_.mem.unit_bytes;
    require(req.addr % unit_bytes == 0, "serve: request address must be unit-aligned");
    if (req.op == Op::write)
        require(req.payload.size() == unit_bytes,
                "serve: write payload must be exactly one unit");

    req.reply.emplace();
    std::future<Response> result = req.reply->get_future();
    obs::trace_request_begin(req.trace);  // the request's one clock read

    require(accepting_.load(std::memory_order_acquire),
            "serve: server is not accepting requests");
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (!queue_.push(req)) {
        // stop() closed the queue between our check and the push; undo the
        // accounting so drain() never waits for a request that was never in.
        submitted_.fetch_sub(1, std::memory_order_relaxed);
        {
            std::lock_guard lock(mutex_);  // a drain() waiter is asleep or sees it
        }
        all_done_.notify_all();
        throw Seda_error("serve: server stopped while submitting");
    }
    inflight_gauge().add(1);
    return result;
}

void Server::drain()
{
    obs::health_drain_begin();
    {
        std::unique_lock lock(mutex_);
        // Snapshot the goal up front: requests submitted AFTER drain() began
        // are someone else's to wait for, so concurrent submitters can't
        // starve this call.  completed_ == submitted_ ("nothing in flight at
        // all") also satisfies the contract, and covers a snapshot inflated by
        // a submit whose push lost the race with stop() and was rolled back.
        const u64 target = submitted_.load(std::memory_order_relaxed);
        all_done_.wait(lock, [&] {
            const u64 done = completed_.load(std::memory_order_relaxed);
            return done >= target || done == submitted_.load(std::memory_order_relaxed);
        });
    }
    obs::health_drain_end();
}

void Server::stop()
{
    bool join = false;
    {
        std::lock_guard lock(mutex_);
        if (!stopped_) {
            stopped_ = true;
            join = started_;
        }
        accepting_.store(false, std::memory_order_release);
    }
    queue_.close();
    if (!join) return;
    scheduler_thread_.join();
    {
        // The drainer is a pool task that uses this object's members; the
        // pool outlives them, so wait for it here.
        std::unique_lock lock(mutex_);
        all_done_.wait(lock, [&] { return !draining_; });
    }
    // Balanced against start(): only the call that actually ends a started
    // server's life flips the health plane.
    obs::health_server_stopped();
}

u32 Server::add_tenant() { return tenants_.add(master_enc_, master_mac_, cfg_.mem, pool_); }

void Server::evict_tenant(u32 id) { tenants_.evict(id); }

Tenant& Server::tenant(u32 id)
{
    Tenant* t = tenants_.find(id);
    require(t != nullptr, "serve: unknown tenant id");
    return *t;
}

Serve_stats Server::stats() const
{
    std::lock_guard lock(mutex_);
    Serve_stats out = stats_;
    out.evicted_rejects = evicted_rejects_.load(std::memory_order_relaxed);
    // A tenant added after the last dispatch has no counter row yet; size
    // the snapshot so callers can always index by tenant id.
    if (out.tenants.size() < tenants_.size()) out.tenants.resize(tenants_.size());
    return out;
}

void Server::scheduler_loop()
{
    std::vector<Request> run;
    const obs::Histogram admit_wait = obs::stage_histogram(obs::Stage::admit_wait);
    const obs::Histogram batch_requests = obs::stage_histogram(obs::Stage::batch_requests);
    const obs::Counter requests_total =
        obs::Metrics_registry::instance().counter("serve_requests_total");
    const obs::Counter windows_total =
        obs::Metrics_registry::instance().counter("serve_windows_total");
    for (;;) {
        {
            // The window span covers the whole pop_batch call, idle wait for
            // the first request included (docs/OBSERVABILITY.md).
            obs::Stage_span window(obs::Stage::window);
            if (queue_.pop_batch(run, cfg_.max_batch) == 0) return;  // closed + drained
        }
        // One clock read per window serves every request's admit wait and
        // the traced requests' pickup stamps.
        const u64 t_pickup = obs::now_ticks();
        if (obs::enabled()) {
            windows_total.add(1);
            requests_total.add(run.size());
            batch_requests.record(static_cast<double>(run.size()));
            obs::Flight_recorder::record(obs::Flight_kind::window, obs::k_flight_no_tenant,
                                         0, run.size(), 0);
            for (const Request& r : run)
                admit_wait.record(obs::ticks_between_us(r.trace.t_submit, t_pickup));
        }
        // Outside the enabled() block because trace recordings sample
        // requests even under SEDA_OBS=0.
        for (Request& r : run) obs::trace_request_pickup(r.trace, t_pickup);
        // Dispatch into a local delta so client submit() calls never
        // contend with the crypto phase for the stats mutex.
        Serve_stats delta;
        scheduler_.dispatch(run, delta);
        inflight_gauge().add(-static_cast<i64>(run.size()));
        export_tenant_metrics(delta);
        // Merge before the window can reach the drainer: a ready future
        // implies stats() counts its request.  Then append the window to the
        // completion FIFO -- a swap when the FIFO is empty, which hands the
        // scheduler an empty buffer back -- and post the drainer unless one
        // is already posted or running.
        bool post = false;
        {
            std::lock_guard lock(mutex_);
            stats_.merge(delta);
            if (done_.empty())
                done_.swap(run);
            else
                std::move(run.begin(), run.end(), std::back_inserter(done_));
            post = !std::exchange(draining_, true);
        }
        run.clear();
        if (post) (void)pool_.submit([this] { deliver_windows(); });
    }
}

void Server::deliver_windows()
{
    std::unique_lock lock(mutex_);
    while (!done_.empty()) {
        delivering_.swap(done_);
        lock.unlock();
        deliver(delivering_);
        const std::size_t n = delivering_.size();
        delivering_.clear();
        lock.lock();
        completed_.fetch_add(n, std::memory_order_relaxed);
        all_done_.notify_all();
    }
    draining_ = false;
    all_done_.notify_all();  // stop() waits for the drainer to go idle
}

void Server::export_tenant_metrics(const Serve_stats& delta)
{
    if (!obs::enabled()) return;
    auto& reg = obs::Metrics_registry::instance();
    while (tenant_series_.size() < delta.tenants.size()) {
        const std::string id = std::to_string(tenant_series_.size());
        tenant_series_.push_back({reg.counter("serve_tenant_writes_total", "tenant", id),
                                  reg.counter("serve_tenant_reads_total", "tenant", id),
                                  reg.counter("serve_tenant_ok_total", "tenant", id),
                                  reg.counter("serve_tenant_mac_mismatch_total", "tenant", id),
                                  reg.counter("serve_tenant_replay_total", "tenant", id),
                                  reg.counter("serve_tenant_rejected_total", "tenant", id),
                                  reg.counter("serve_tenant_bytes_total", "tenant", id)});
    }
    for (std::size_t t = 0; t < delta.tenants.size(); ++t) {
        const Tenant_counters& c = delta.tenants[t];
        if (c.writes == 0 && c.reads == 0 && c.rejected == 0) continue;
        const Tenant_series& s = tenant_series_[t];
        if (c.writes != 0) s.writes.add(c.writes);
        if (c.reads != 0) s.reads.add(c.reads);
        if (c.ok != 0) s.ok.add(c.ok);
        if (c.mac_mismatch != 0) s.mac_mismatch.add(c.mac_mismatch);
        if (c.replay_detected != 0) s.replay_detected.add(c.replay_detected);
        if (c.rejected != 0) s.rejected.add(c.rejected);
        if (c.bytes != 0) s.bytes.add(c.bytes);
    }
}

}  // namespace seda::serve
