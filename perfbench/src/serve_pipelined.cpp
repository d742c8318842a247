// serve_pipelined: many small random requests from pipelined closed-loop
// generators.  Per-request front-end work (admission, coalescing, one
// promise per request) dominates and crypto is a small share, so batched
// completions and scheduler shards show up here.
#include <array>
#include <cstring>
#include <exception>
#include <future>
#include <optional>
#include <thread>

#include "common/bitutil.h"
#include "common/rng.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using seda::Rng;
using seda::u8;
namespace serve = seda::serve;

constexpr std::size_t k_tenants = 4;
constexpr std::size_t k_generators = 2;
constexpr std::size_t k_depth = 64;  ///< outstanding requests per generator
constexpr std::size_t k_slots_per_tenant = 256;
constexpr std::size_t k_own_slots = k_slots_per_tenant / k_generators;
constexpr std::size_t k_workers = 2;
/// Requests per generator replayed after every set-up; the counters after
/// it must match across set-ups and the reference model.
constexpr u64 k_prefix_ops = 4096;

using Unit = std::array<u8, k_unit_bytes>;

/// One generator thread: a deterministic request stream over its own slots,
/// a mirror of its writes, and the counters the server must report for it.
class Generator {
public:
    Generator(u64 seed, u32 id) : rng_(serve::client_seed(seed, 0xBE7C, id)), id_(id) {}

    /// Drives the stream with `k_depth` requests in flight until `stop()`
    /// returns true, then collects every outstanding reply.
    template <typename Stop>
    void pump(serve::Server& server, Stop stop, Tally* tally, bool traced);

    /// Address of this generator's first written slot of tenant 0.
    [[nodiscard]] seda::Addr written_addr() const;
    /// Reads `addr` of tenant 0 (one of this generator's slots) as part of
    /// the stream and waits for the reply: the fault probe.
    void probe(serve::Server& server, seda::Addr addr);

    [[nodiscard]] const std::vector<serve::Tenant_counters>& model() const { return model_; }
    [[nodiscard]] u64 issued() const { return issued_; }
    [[nodiscard]] u64 failed() const { return bad_status_ + mismatches_ + throws_; }

    seda::obs::Log_histogram submit_us;     ///< time inside Server::submit (traced)
    seda::obs::Log_histogram reply_wait_us; ///< time blocked on the future (traced)
    double busy_frac = 0.0;                 ///< thread CPU over wall, last pump

private:
    struct Inflight {
        std::optional<std::future<serve::Response>> reply;
        Clock::time_point submitted;
        bool read = false;
        Unit expect{};
    };

    /// Draws the next request of the stream and issues it on `slot`.
    void submit_next(serve::Server& server, Inflight& slot, bool traced);
    /// Builds the request for `local` (one of this generator's slots) of
    /// `tenant`, updates the mirror and the reference model, and submits it.
    void issue(serve::Server& server, Inflight& slot, u32 tenant, std::size_t local, bool write,
               bool traced);
    void submit(serve::Server& server, serve::Request req, Inflight& slot, bool traced);
    void complete(Inflight& slot, Tally* tally, bool traced);

    Rng rng_;
    u32 id_;
    std::array<Unit, k_tenants * k_own_slots> mirror_{};
    std::array<bool, k_tenants * k_own_slots> written_{};
    std::vector<serve::Tenant_counters> model_ = std::vector<serve::Tenant_counters>(k_tenants);
    std::array<Inflight, k_depth> ring_;
    u64 issued_ = 0;
    u64 bad_status_ = 0;
    u64 mismatches_ = 0;
    u64 throws_ = 0;
};

void Generator::submit_next(serve::Server& server, Inflight& slot, bool traced)
{
    const auto tenant = static_cast<u32>(rng_.next_below(k_tenants));
    const auto local = static_cast<std::size_t>(rng_.next_below(k_own_slots));
    // A slot's first touch must be a write (a read of it would be rejected).
    const bool write = !written_[tenant * k_own_slots + local] || rng_.next_unit() < 0.5;
    issue(server, slot, tenant, local, write, traced);
}

void Generator::issue(serve::Server& server, Inflight& slot, u32 tenant, std::size_t local,
                      bool write, bool traced)
{
    const std::size_t idx = tenant * k_own_slots + local;
    const std::size_t global_slot = id_ * k_own_slots + local;
    serve::Request req;
    req.tenant_id = tenant;
    req.client_id = id_;
    req.seq = issued_;
    req.addr = global_slot * k_unit_bytes;
    req.layer_id = tenant;
    req.fmap_idx = id_;
    req.blk_idx = static_cast<u32>(global_slot);
    serve::Tenant_counters& model = model_[tenant];
    ++model.ok;
    model.bytes += k_unit_bytes;
    if (write) {
        req.op = serve::Op::write;
        req.payload.resize(k_unit_bytes);
        for (auto& b : req.payload) b = rng_.next_byte();
        std::memcpy(mirror_[idx].data(), req.payload.data(), k_unit_bytes);
        written_[idx] = true;
        ++model.writes;
    } else {
        req.op = serve::Op::read;
        ++model.reads;
        model.payload_fold ^= seda::fnv1a64(mirror_[idx].data(), k_unit_bytes);
    }
    slot.read = !write;
    slot.expect = mirror_[idx];
    submit(server, std::move(req), slot, traced);
}

void Generator::submit(serve::Server& server, serve::Request req, Inflight& slot, bool traced)
{
    ++issued_;
    slot.submitted = Clock::now();
    try {
        slot.reply = server.submit(std::move(req));
    } catch (const std::exception&) {
        ++throws_;
        slot.reply.reset();
        return;
    }
    if (traced)
        submit_us.record(
            std::chrono::duration<double, std::micro>(Clock::now() - slot.submitted).count());
}

void Generator::complete(Inflight& slot, Tally* tally, bool traced)
{
    const Clock::time_point wait_start = traced ? Clock::now() : Clock::time_point{};
    std::optional<serve::Response> resp;
    try {
        resp = slot.reply->get();
    } catch (const std::exception&) {
        ++throws_;
    }
    slot.reply.reset();
    const Clock::time_point done = Clock::now();
    if (resp) {
        if (resp->status != seda::core::Verify_status::ok)
            ++bad_status_;
        else if (slot.read && (resp->payload.size() != k_unit_bytes ||
                               std::memcmp(resp->payload.data(), slot.expect.data(), k_unit_bytes) != 0))
            ++mismatches_;
    }
    if (tally != nullptr)
        tally->complete(done, 1,
                         std::chrono::duration<double, std::micro>(done - slot.submitted).count());
    if (traced)
        reply_wait_us.record(std::chrono::duration<double, std::micro>(done - wait_start).count());
}

template <typename Stop>
void Generator::pump(serve::Server& server, Stop stop, Tally* tally, bool traced)
{
    const Clock::time_point wall0 = Clock::now();
    const u64 cpu0 = thread_cpu_ns();
    std::size_t live = 0;
    for (Inflight& slot : ring_) {
        submit_next(server, slot, traced);
        if (slot.reply) ++live;
    }
    for (std::size_t k = 0; live > 0; k = (k + 1) % k_depth) {
        Inflight& slot = ring_[k];
        if (!slot.reply) continue;
        complete(slot, tally, traced);
        if (stop()) {
            --live;
            continue;
        }
        const Clock::time_point previous = slot.submitted;
        submit_next(server, slot, traced);
        if (tally != nullptr)
            tally->cycle(slot.submitted,
                         std::chrono::duration<double, std::milli>(slot.submitted - previous)
                             .count());
        if (!slot.reply) --live;  // the submit threw
    }
    busy_frac = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9 /
                seconds_between(wall0, Clock::now());
}

seda::Addr Generator::written_addr() const
{
    std::size_t local = 0;
    while (!written_[local]) ++local;  // tenant 0's slots come first
    return (id_ * k_own_slots + local) * k_unit_bytes;
}

void Generator::probe(serve::Server& server, seda::Addr addr)
{
    Inflight& slot = ring_[0];
    issue(server, slot, 0, addr / k_unit_bytes - id_ * k_own_slots, false, false);
    if (slot.reply) complete(slot, nullptr, false);
}

class Serve_pipelined final : public Workload {
public:
    explicit Serve_pipelined(const Options& opt) : opt_(opt) {}

    double setup(Gate& gate) override;
    void warm_up(Gate& gate) override;
    Phase run(double seconds, bool traced) override;
    void finish(Gate& gate) override;

private:
    /// Runs every generator on its own thread until `stop_for(g)` says so.
    template <typename Make_stop>
    void pump_all(Make_stop make_stop, std::vector<Tally>* tallies, bool traced);

    Options opt_;
    std::unique_ptr<serve::Server> server_;
    std::vector<Generator> gens_;
    /// Batches here stay under Secure_session's inline limit, so they run on
    /// the scheduler thread and the worker pool stays idle: this workload
    /// reports no runtime.pool_busy_frac.
    Thread_set sched_thread_;
    /// Counters after the determinism prefix of the first set-up.
    std::optional<std::vector<serve::Tenant_counters>> prefix_stats_;
};

template <typename Make_stop>
void Serve_pipelined::pump_all(Make_stop make_stop, std::vector<Tally>* tallies, bool traced)
{
    std::vector<std::thread> threads;
    for (std::size_t g = 0; g < gens_.size(); ++g)
        threads.emplace_back([&, g] {
            gens_[g].pump(*server_, make_stop(gens_[g]),
                          tallies != nullptr ? &(*tallies)[g] : nullptr, traced);
        });
    for (auto& t : threads) t.join();
}

double Serve_pipelined::setup(Gate& gate)
{
    server_.reset();
    gens_.clear();
    for (u32 g = 0; g < k_generators; ++g) gens_.emplace_back(opt_.seed, g);

    const Clock::time_point t0 = Clock::now();
    serve::Server_config cfg;
    cfg.tenants = k_tenants;
    cfg.workers = k_workers;
    server_ = std::make_unique<serve::Server>(serve::demo_master_key(opt_.seed, 0x5E4E),
                                              serve::demo_master_key(opt_.seed, 0x3AC5E4E),
                                              cfg);
    const std::set<int> built = task_ids();
    server_->start();
    const Clock::time_point t1 = Clock::now();
    sched_thread_ = Thread_set(new_tasks(built, task_ids()));

    // Determinism prefix: a fixed number of requests per generator, then the
    // per-tenant counters must equal the reference model and the first
    // set-up's counters exactly.
    pump_all([](const Generator& g) { return [&g] { return g.issued() >= k_prefix_ops; }; },
             nullptr, false);
    server_->drain();
    std::vector<serve::Tenant_counters> stats = server_->stats().tenants;
    for (std::size_t t = 0; t < k_tenants; ++t) {
        serve::Tenant_counters expect;
        for (const Generator& g : gens_) expect += g.model()[t];
        gate.expect(stats[t] == expect, "serve_pipelined: tenant " + std::to_string(t) +
                                            " counters differ from the model after the prefix");
    }
    if (!prefix_stats_)
        prefix_stats_ = stats;
    else
        gate.expect(*prefix_stats_ == stats,
                    "serve_pipelined: prefix counters differ between set-ups");
    return seconds_between(t0, t1);
}

void Serve_pipelined::warm_up(Gate&)
{
    if (!opt_.fault) return;
    // Tamper one written unit through the attacker interface while nothing
    // is in flight, then read it back as part of generator 0's stream.
    Generator& g = gens_[0];
    const seda::Addr addr = g.written_addr();
    server_->tenant(0).session().memory().tamper(addr, 0, 0x01);
    g.probe(*server_, addr);
}

Phase Serve_pipelined::run(double seconds, bool traced)
{
    for (Generator& g : gens_) {
        g.submit_us = {};
        g.reply_wait_us = {};
    }
    Server_layers server_layers(*server_, sched_thread_);
    server_layers.begin();

    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<Tally> tallies(k_generators, Tally(t0, deadline));
    pump_all([deadline](const Generator&) { return [deadline] { return Clock::now() >= deadline; }; },
             &tallies, traced);
    server_->drain();
    const double wall = seconds_between(t0, Clock::now());

    Tally all = tallies[0];
    for (std::size_t g = 1; g < tallies.size(); ++g) all.merge(tallies[g]);
    Phase p(all);
    seda::obs::Log_histogram submit, reply;
    double gen_busy = 0.0;
    for (const Generator& g : gens_) {
        submit.merge(g.submit_us);
        reply.merge(g.reply_wait_us);
        gen_busy += g.busy_frac / static_cast<double>(gens_.size());
    }
    if (!traced) return p;

    std::size_t resident = 0;
    for (u32 t = 0; t < k_tenants; ++t)
        resident += server_->tenant(t).session().memory().unit_count();
    p.layers = {
        {"serve.submit_us.p50", submit.percentile(50.0), "us"},
        {"serve.submit_us.p99", submit.percentile(99.0), "us"},
        {"serve.reply_wait_us.p50", reply.percentile(50.0), "us"},
    };
    server_layers.end(wall, p.layers);
    p.layers.push_back({"core.units_resident", static_cast<double>(resident), "count"});
    p.layers.push_back({"gen.busy_frac", gen_busy, "ratio"});
    return p;
}

void Serve_pipelined::finish(Gate& gate)
{
    server_->drain();
    const serve::Serve_stats stats = server_->stats();
    u64 issued = 0;
    for (const Generator& g : gens_) {
        issued += g.issued();
        gate.failed += g.failed();
    }
    gate.attempted += issued;
    gate.expect(stats.requests == issued, "serve_pipelined: server saw " +
                                              std::to_string(stats.requests) + " requests, " +
                                              std::to_string(issued) + " were issued");
    for (std::size_t t = 0; t < k_tenants; ++t) {
        serve::Tenant_counters expect;
        for (const Generator& g : gens_) expect += g.model()[t];
        gate.expect(stats.tenants[t] == expect,
                    "serve_pipelined: tenant " + std::to_string(t) +
                        " counters differ from the reference model");
    }
    gate.expect(gate.failed == 0, "serve_pipelined: " + std::to_string(gate.failed) +
                                      " requests failed or mismatched their mirror");
}

}  // namespace

void Server_layers::begin()
{
    const serve::Serve_stats stats = server_.stats();
    requests0_ = stats.requests;
    batches0_ = stats.batches;
    stages0_ = serve_req_stage_sums();
    sched_.begin();
}

void Server_layers::end(double wall, std::vector<Metric>& out) const
{
    const serve::Serve_stats stats = server_.stats();
    out.push_back({"serve.reqs_per_batch",
                   static_cast<double>(stats.requests - requests0_) /
                       static_cast<double>(std::max<u64>(1, stats.batches - batches0_)),
                   "count"});
    out.push_back({"serve.sched_busy_frac", sched_.busy_frac(wall), "ratio"});
    const std::vector<double> stages = serve_req_stage_sums();
    double total = 0.0;
    for (std::size_t i = 0; i < stages.size(); ++i) total += stages[i] - stages0_[i];
    for (std::size_t i = 0; i < stages.size(); ++i)
        out.push_back({std::string("serve.req_") + k_req_stages[i] + "_share",
                       total > 0.0 ? (stages[i] - stages0_[i]) / total : 0.0, "ratio"});
}

std::unique_ptr<Workload> make_serve_pipelined(const Options& opt)
{
    return std::make_unique<Serve_pipelined>(opt);
}

}  // namespace perfbench
