#include "serve/batch_scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/bitutil.h"
#include "common/error.h"
#include "obs/request_trace.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace seda::serve {

using core::Verify_status;

Batch_scheduler::Batch_scheduler(Tenant_table& tenants) : tenants_(tenants) {}

void Batch_scheduler::record_latency(const Request& req, Serve_stats& stats)
{
    if (req.enqueued_at.time_since_epoch().count() == 0) return;  // untimestamped replay
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - req.enqueued_at)
                          .count();
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

void Batch_scheduler::reject(Request& req, std::exception_ptr error,
                             Tenant_counters& counters, Serve_stats& stats)
{
    ++(req.op == Op::write ? counters.writes : counters.reads);
    ++counters.rejected;
    record_latency(req, stats);
    obs::trace_request_finish(req.trace);
    if (req.reply) req.reply->set_exception(std::move(error));
}

void Batch_scheduler::complete(Request& req, Response&& resp, Tenant_counters& counters,
                               Serve_stats& stats)
{
    ++(req.op == Op::write ? counters.writes : counters.reads);
    switch (resp.status) {
        case Verify_status::ok:
            ++counters.ok;
            counters.bytes += req.op == Op::write ? req.payload.size() : resp.payload.size();
            if (req.op == Op::read)
                counters.payload_fold ^= fnv1a64(resp.payload.data(), resp.payload.size());
            break;
        case Verify_status::mac_mismatch:
            ++counters.mac_mismatch;
            counters.failures.push_back(
                {req.addr, req.layer_id, req.fmap_idx, req.blk_idx, resp.status});
            break;
        case Verify_status::replay_detected:
            ++counters.replay_detected;
            counters.failures.push_back(
                {req.addr, req.layer_id, req.fmap_idx, req.blk_idx, resp.status});
            break;
    }
    if (resp.status != Verify_status::ok)
        obs::Flight_recorder::detect(obs::Flight_kind::detect, req.tenant_id, req.addr,
                                     req.layer_id, req.fmap_idx, req.blk_idx,
                                     static_cast<u8>(resp.status));
    record_latency(req, stats);
    obs::trace_request_finish(req.trace);
    if (req.reply) req.reply->set_value(std::move(resp));
}

void Batch_scheduler::dispatch_one(Tenant& tenant, Request& req, Serve_stats& stats)
{
    Tenant_counters& counters = stats.tenants[req.tenant_id];
    core::Secure_memory& mem = tenant.session().memory();
    obs::Flight_recorder::record(obs::Flight_kind::fallback, req.tenant_id, req.addr, 1,
                                 mem.config().unit_bytes);
    // Same adversary window as the bulk paths, so per-request fallback
    // dispatch offers the tap identical injection points.
    mem.pull_dram_tap();
    // The fallback memory op is this request's "crypto" phase, so a traced
    // request keeps its full decomposition off the bulk path too.
    const bool traced = req.trace.trace_id != 0;
    const u64 tf0 = traced ? obs::now_ticks() : 0;
    try {
        if (req.op == Op::write) {
            mem.write(req.addr, req.payload, req.layer_id, req.fmap_idx, req.blk_idx);
            if (traced) obs::trace_request_flush(req.trace, tf0, obs::now_ticks());
            complete(req, {Verify_status::ok, {}}, counters, stats);
        } else {
            std::vector<u8> out(mem.config().unit_bytes);
            const Verify_status status =
                mem.read(req.addr, out, req.layer_id, req.fmap_idx, req.blk_idx);
            if (traced) obs::trace_request_flush(req.trace, tf0, obs::now_ticks());
            Response resp{status,
                          status == Verify_status::ok ? std::move(out) : std::vector<u8>{}};
            complete(req, std::move(resp), counters, stats);
        }
    } catch (...) {
        if (traced) obs::trace_request_flush(req.trace, tf0, obs::now_ticks());
        reject(req, std::current_exception(), counters, stats);
    }
}

void Batch_scheduler::flush_writes(Tenant& tenant, std::span<Request* const> segment,
                                   Serve_stats& stats)
{
    writes_.clear();
    bool traced = false;
    for (Request* r : segment) {
        writes_.push_back({r->addr, r->payload, r->layer_id, r->fmap_idx, r->blk_idx});
        traced |= r->trace.trace_id != 0;
    }
    const u64 tf0 = traced ? obs::now_ticks() : 0;
    try {
        obs::Stage_span span(obs::Stage::flush_write);
        tenant.session().write_units(writes_);
    } catch (const Seda_error&) {
        // stage_writes validates before mutating, so a rejected batch wrote
        // nothing: re-dispatching per request is exact, and only the
        // poisoned entries fail.
        for (Request* r : segment) dispatch_one(tenant, *r, stats);
        return;
    }
    if (traced) {
        const u64 tf1 = obs::now_ticks();
        for (Request* r : segment) obs::trace_request_flush(r->trace, tf0, tf1);
    }
    ++stats.batches;
    Tenant_counters& counters = stats.tenants[tenant.id()];
    obs::Stage_span span(obs::Stage::complete);
    for (Request* r : segment) complete(*r, {Verify_status::ok, {}}, counters, stats);
}

void Batch_scheduler::flush_reads(Tenant& tenant, std::span<Request* const> segment,
                                  Serve_stats& stats)
{
    const Bytes unit_bytes = tenant.session().memory().config().unit_bytes;
    if (read_bufs_.size() < segment.size()) read_bufs_.resize(segment.size());
    reads_.clear();
    bool traced = false;
    for (std::size_t i = 0; i < segment.size(); ++i) {
        read_bufs_[i].resize(unit_bytes);
        reads_.push_back({segment[i]->addr, read_bufs_[i], segment[i]->layer_id,
                          segment[i]->fmap_idx, segment[i]->blk_idx});
        traced |= segment[i]->trace.trace_id != 0;
    }

    const u64 tf0 = traced ? obs::now_ticks() : 0;
    std::vector<Verify_status> statuses;
    try {
        obs::Stage_span span(obs::Stage::flush_read);
        statuses = tenant.session().read_units(reads_);
    } catch (const Seda_error&) {
        // The bulk read path locates every unit before touching any output,
        // so a rejected batch read nothing; fall back per request.
        for (Request* r : segment) dispatch_one(tenant, *r, stats);
        return;
    }
    if (traced) {
        const u64 tf1 = obs::now_ticks();
        for (Request* r : segment) obs::trace_request_flush(r->trace, tf0, tf1);
    }
    ++stats.batches;
    Tenant_counters& counters = stats.tenants[tenant.id()];
    obs::Stage_span span(obs::Stage::complete);
    for (std::size_t i = 0; i < segment.size(); ++i) {
        Request& req = *segment[i];
        const Verify_status status = statuses[i];
        ++counters.reads;
        switch (status) {
            case Verify_status::ok:
                ++counters.ok;
                counters.bytes += read_bufs_[i].size();
                counters.payload_fold ^= fnv1a64(read_bufs_[i].data(), read_bufs_[i].size());
                break;
            case Verify_status::mac_mismatch:
                ++counters.mac_mismatch;
                counters.failures.push_back(
                    {req.addr, req.layer_id, req.fmap_idx, req.blk_idx, status});
                break;
            case Verify_status::replay_detected:
                ++counters.replay_detected;
                counters.failures.push_back(
                    {req.addr, req.layer_id, req.fmap_idx, req.blk_idx, status});
                break;
        }
        if (status != Verify_status::ok)
            obs::Flight_recorder::detect(obs::Flight_kind::detect, req.tenant_id, req.addr,
                                         req.layer_id, req.fmap_idx, req.blk_idx,
                                         static_cast<u8>(status));
        record_latency(req, stats);
        obs::trace_request_finish(req.trace);
        // Only surrender the buffer when someone is waiting for it; the
        // fire-and-forget path keeps reusing it allocation-free.
        if (req.reply)
            req.reply->set_value({status, status == Verify_status::ok
                                              ? std::move(read_bufs_[i])
                                              : std::vector<u8>{}});
    }
}

void Batch_scheduler::flush_pending_writes(Tenant& tenant, Serve_stats& stats)
{
    if (!pending_writes_.empty()) flush_writes(tenant, pending_writes_, stats);
    pending_writes_.clear();
    pending_write_addrs_.clear();
}

void Batch_scheduler::flush_pending_reads(Tenant& tenant, Serve_stats& stats)
{
    if (!pending_reads_.empty()) flush_reads(tenant, pending_reads_, stats);
    pending_reads_.clear();
    pending_read_addrs_.clear();
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
        // Accumulate one write batch and one read batch; only an address
        // conflict against the OPPOSITE pending batch forces a flush, so a
        // random op mix still coalesces into ~two bulk calls per window.
        const auto contains = [](const std::vector<Addr>& addrs, Addr a) {
            return std::find(addrs.begin(), addrs.end(), a) != addrs.end();
        };
        for (Request* r : per_tenant_[t]) {
            if (r->op == Op::write) {
                if (contains(pending_read_addrs_, r->addr))
                    flush_pending_reads(tenant, stats);
                pending_writes_.push_back(r);
                pending_write_addrs_.push_back(r->addr);
            } else {
                if (contains(pending_write_addrs_, r->addr))
                    flush_pending_writes(tenant, stats);
                pending_reads_.push_back(r);
                pending_read_addrs_.push_back(r->addr);
            }
        }
        flush_pending_writes(tenant, stats);
        flush_pending_reads(tenant, stats);
    }
}

}  // namespace seda::serve
