#include "serve/batch_scheduler.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <variant>

#include "common/bitutil.h"
#include "common/error.h"
#include "obs/request_trace.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace seda::serve {

using core::Verify_status;

Batch_scheduler::Batch_scheduler(Tenant_table& tenants) : tenants_(tenants) {}

void Batch_scheduler::record_latency(const Request& req, u64 t_done, Serve_stats& stats)
{
    if (req.trace.t_submit == 0) return;  // never submitted: a bench replay
    const double us = obs::ticks_between_us(req.trace.t_submit, t_done);
    stats.latency_us.record(us);
    if (obs::enabled()) {
        if (tenant_latency_.size() <= req.tenant_id)
            tenant_latency_.resize(req.tenant_id + std::size_t{1});
        obs::Histogram& h = tenant_latency_[req.tenant_id];
        if (!h.armed())
            h = obs::Metrics_registry::instance().histogram(
                "serve_tenant_latency_us", "tenant", std::to_string(req.tenant_id));
        h.record(us, req.trace.trace_id);
    }
}

void Batch_scheduler::reject(Request& req, std::exception_ptr error, u64 t_done,
                             Serve_stats& stats)
{
    Tenant_counters& counters = stats.tenants[req.tenant_id];
    ++(req.op == Op::write ? counters.writes : counters.reads);
    ++counters.rejected;
    record_latency(req, t_done, stats);
    obs::trace_request_finish(req.trace);
    req.outcome = std::move(error);
}

void Batch_scheduler::complete(Request& req, Verify_status status, u64 t_done,
                               Serve_stats& stats)
{
    Tenant_counters& counters = stats.tenants[req.tenant_id];
    const bool read = req.op == Op::read;
    ++(read ? counters.reads : counters.writes);
    if (status == Verify_status::ok) {
        ++counters.ok;
        counters.bytes += req.payload.size();
        if (read) counters.payload_fold ^= fnv1a64(req.payload.data(), req.payload.size());
    } else {
        ++(status == Verify_status::mac_mismatch ? counters.mac_mismatch
                                                 : counters.replay_detected);
        counters.failures.push_back({req.addr, req.layer_id, req.fmap_idx, req.blk_idx, status});
        obs::Flight_recorder::detect(obs::Flight_kind::detect, req.tenant_id, req.addr,
                                     req.layer_id, req.fmap_idx, req.blk_idx,
                                     static_cast<u8>(status));
    }
    record_latency(req, t_done, stats);
    obs::trace_request_finish(req.trace);
    req.outcome = status;
}

void deliver(std::span<Request> run)
{
    for (Request& r : run) {
        if (!r.reply) continue;
        if (const auto* error = std::get_if<std::exception_ptr>(&r.outcome)) {
            r.reply->set_exception(*error);
        } else {
            const auto status = std::get<Verify_status>(r.outcome);
            const bool payload = r.op == Op::read && status == Verify_status::ok;
            r.reply->set_value({status, payload ? std::move(r.payload) : std::vector<u8>{}});
        }
    }
}

void Batch_scheduler::flush(Tenant& tenant, Op op, std::span<Request* const> segment,
                            Serve_stats& stats, bool retry)
{
    const bool write = op == Op::write;
    const Bytes unit_bytes = tenant.session().memory().config().unit_bytes;
    writes_.clear();
    reads_.clear();
    bool traced = false;
    for (Request* r : segment) {
        if (write) {
            writes_.push_back({r->addr, r->payload, r->layer_id, r->fmap_idx, r->blk_idx});
        } else {
            r->payload.resize(unit_bytes);
            reads_.push_back({r->addr, r->payload, r->layer_id, r->fmap_idx, r->blk_idx});
        }
        traced |= r->trace.trace_id != 0;
    }

    // The session call is each request's "crypto" phase, retries included,
    // so a traced request keeps its full decomposition on every path.  The
    // flush's one clock read, after the call, is every request's
    // completion time.
    const u64 tf0 = traced ? obs::now_ticks() : 0;
    const auto flush_end = [&] {
        const u64 tf1 = obs::now_ticks();
        if (traced)
            for (Request* r : segment) obs::trace_request_flush(r->trace, tf0, tf1);
        return tf1;
    };
    std::vector<Verify_status> statuses;
    try {
        obs::Stage_span span(write ? obs::Stage::flush_write : obs::Stage::flush_read);
        if (write)
            tenant.session().write_units(writes_);
        else
            statuses = tenant.session().read_units(reads_);
    } catch (const Seda_error&) {
        if (retry) {
            reject(*segment.front(), std::current_exception(), flush_end(), stats);
            return;
        }
        // stage_writes validates every entry before it mutates anything, and
        // reads change no state, so a rejected call changed nothing:
        // re-running each request alone is exact, and only the poisoned
        // ones fail.
        for (Request* const& r : segment) {
            obs::Flight_recorder::record(obs::Flight_kind::fallback, r->tenant_id, r->addr,
                                         1, unit_bytes);
            flush(tenant, op, {&r, 1}, stats, true);
        }
        return;
    }
    const u64 t_done = flush_end();
    ++stats.batches;
    obs::Stage_span span(obs::Stage::complete);
    for (std::size_t i = 0; i < segment.size(); ++i)
        complete(*segment[i], write ? Verify_status::ok : statuses[i], t_done, stats);
}

void Batch_scheduler::flush_pending(Tenant& tenant, Op op, Serve_stats& stats)
{
    Pending& p = pending_[static_cast<std::size_t>(op)];
    if (!p.requests.empty()) flush(tenant, op, p.requests, stats);
    p.requests.clear();
    p.addrs.clear();
}

void Batch_scheduler::dispatch(std::span<Request> run, Serve_stats& stats)
{
    // Snapshot the tenant count once: every request in `run` was admitted
    // against the table, so its tenant already existed when the run was
    // drained (tenants added mid-dispatch only matter for the next run).
    const std::size_t tenant_count = tenants_.size();
    {
        obs::Stage_span span(obs::Stage::assembly);
        if (stats.tenants.size() < tenant_count) stats.tenants.resize(tenant_count);
        if (per_tenant_.size() < tenant_count) per_tenant_.resize(tenant_count);
        for (auto& bucket : per_tenant_) bucket.clear();
        for (Request& r : run) {
            require(r.tenant_id < tenant_count,
                    "Batch_scheduler: request names an unknown tenant");
            per_tenant_[r.tenant_id].push_back(&r);
        }
    }
    stats.requests += run.size();

    for (std::size_t t = 0; t < tenant_count; ++t) {
        if (per_tenant_[t].empty()) continue;
        Tenant& tenant = *tenants_.find(static_cast<u32>(t));
        // Accumulate one batch per op; only an address conflict against
        // the OPPOSITE pending batch forces a flush, so a random op mix
        // still coalesces into ~two bulk calls per window.
        for (Request* r : per_tenant_[t]) {
            const Op other = r->op == Op::write ? Op::read : Op::write;
            const std::vector<Addr>& conflicts = pending_[static_cast<std::size_t>(other)].addrs;
            if (std::find(conflicts.begin(), conflicts.end(), r->addr) != conflicts.end())
                flush_pending(tenant, other, stats);
            Pending& mine = pending_[static_cast<std::size_t>(r->op)];
            mine.requests.push_back(r);
            mine.addrs.push_back(r->addr);
        }
        flush_pending(tenant, Op::write, stats);
        flush_pending(tenant, Op::read, stats);
    }
}

}  // namespace seda::serve
