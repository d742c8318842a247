// infer_session and infer_serve: resnet18 trace replay on the server NPU
// for 2 tenants, each an engine thread in a closed loop of infer() calls.
// The two workloads move the same bytes; only the transport differs, so the
// gap between them is the serve front end's tax.
#include <algorithm>
#include <exception>
#include <optional>
#include <set>
#include <thread>

#include "accel/npu_config.h"
#include "crypto/baes.h"
#include "crypto/mac.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/run_infer.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
#include "runtime/thread_pool.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace infer = seda::infer;
namespace serve = seda::serve;
using seda::core::Secure_memory;

constexpr std::size_t k_tenants = 2;
constexpr std::size_t k_workers = 2;
constexpr std::size_t k_max_batch_units = 4096;
constexpr u64 k_enc_tag = 0x1FE2;
constexpr u64 k_mac_tag = 0x3AC5;
static_assert(infer::Model_binding::k_unit_bytes == k_unit_bytes);

/// Unit_sink decorator that times every batch call into the transport.
/// A unit's latency is the duration of the call that carried it: the
/// transport has its reply when that call returns.
class Timing_sink final : public infer::Unit_sink {
public:
    explicit Timing_sink(infer::Unit_sink& inner) : inner_(inner) {}

    void write_units(std::span<const Secure_memory::Unit_write> batch) override
    {
        timed(batch.size(), write_, [&] { inner_.write_units(batch); });
    }
    void read_units(std::span<const Secure_memory::Unit_read> batch,
                    std::span<seda::core::Verify_status> statuses) override
    {
        timed(batch.size(), read_, [&] { inner_.read_units(batch, statuses); });
    }

    struct Side {
        u64 calls = 0;
        u64 units = 0;
        double ns = 0.0;
    };

    /// Starts a phase: counters restart, completions land in `tally`.
    void begin(Tally* tally, bool traced)
    {
        tally_ = tally;
        traced_ = traced;
        write_ = {};
        read_ = {};
        cpu_ns_ = 0;
    }
    /// Ends a phase; the counters stay readable.
    void end() { tally_ = nullptr; }
    [[nodiscard]] const Side& writes() const { return write_; }
    [[nodiscard]] const Side& reads() const { return read_; }
    [[nodiscard]] double call_ns() const { return write_.ns + read_.ns; }
    [[nodiscard]] u64 cpu_ns() const { return cpu_ns_; }  ///< caller CPU in calls (traced)

private:
    template <typename Call>
    void timed(std::size_t n, Side& side, Call&& call)
    {
        const u64 cpu0 = traced_ ? thread_cpu_ns() : 0;
        const Clock::time_point t0 = Clock::now();
        call();
        const Clock::time_point t1 = Clock::now();
        const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
        ++side.calls;
        side.units += n;
        side.ns += ns;
        if (traced_) cpu_ns_ += thread_cpu_ns() - cpu0;
        if (tally_ != nullptr) tally_->complete(t1, n, ns / 1e3);
    }

    infer::Unit_sink& inner_;
    Tally* tally_ = nullptr;
    bool traced_ = false;
    Side write_, read_;
    u64 cpu_ns_ = 0;
};

/// One tenant: its engine, its transport, and what its thread measured.
struct Lane {
    std::unique_ptr<infer::Inference_engine> engine;
    std::unique_ptr<infer::Unit_sink> transport;
    std::unique_ptr<Timing_sink> sink;
    std::vector<double> self_ms;   ///< infer() minus its sink calls (traced)
    std::exception_ptr error;
};

infer::Engine_config engine_config(u64 seed, u32 tenant)
{
    return {infer::tenant_seed(seed, tenant), k_max_batch_units};
}

/// Runs `body(lane index)` on one thread per lane and joins them all; an
/// exception ends that lane and is kept for the gate.
template <typename Body>
void on_lanes(std::vector<Lane>& lanes, Body body)
{
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < lanes.size(); ++t)
        threads.emplace_back([&, t] {
            try {
                body(t);
            } catch (...) {
                lanes[t].error = std::current_exception();
            }
        });
    for (auto& th : threads) th.join();
}

/// Infer_stats after load + one inference per tenant, replayed through a
/// fresh set of direct sessions: the reference both infer workloads' first
/// inference must reproduce exactly.
std::vector<infer::Infer_stats> reference_stats(const infer::Model_binding& binding, u64 seed)
{
    seda::runtime::Thread_pool pool(k_workers);
    serve::Tenant_table tenants;
    seda::core::Secure_mem_config mem;
    mem.unit_bytes = k_unit_bytes;
    const auto enc = serve::demo_master_key(seed, k_enc_tag);
    const auto mac = serve::demo_master_key(seed, k_mac_tag);
    std::vector<Lane> lanes(k_tenants);
    for (u32 t = 0; t < k_tenants; ++t) {
        tenants.add(enc, mac, mem, pool);
        lanes[t].engine =
            std::make_unique<infer::Inference_engine>(binding, engine_config(seed, t));
        lanes[t].transport = std::make_unique<infer::Session_sink>(tenants.find(t)->session());
    }
    on_lanes(lanes, [&](std::size_t t) {
        lanes[t].engine->load(*lanes[t].transport);
        lanes[t].engine->infer(*lanes[t].transport);
    });
    std::vector<infer::Infer_stats> out;
    for (const Lane& lane : lanes) {
        if (lane.error) std::rethrow_exception(lane.error);
        out.push_back(lane.engine->stats());
    }
    return out;
}

/// Per-unit cost of the crypto primitives on batches of `n` 64 B units:
/// the bulk positional MAC, and B-AES (batched base OTPs plus the per-unit
/// pad fan-out).  Median of several timed repetitions.
struct Crypto_cost {
    double mac_ns = 0.0;
    double enc_ns = 0.0;
};

Crypto_cost crypto_cost(std::size_t n, u64 seed)
{
    const std::vector<seda::u8> key = serve::demo_master_key(seed, 0xC0DE);
    const seda::crypto::Hmac_engine hmac(key);
    const seda::crypto::Baes_engine baes(key);
    std::vector<seda::u8> data(n * k_unit_bytes);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<seda::u8>(i * 131);
    const auto unit = [&](std::size_t i) {
        return std::span<seda::u8>(data).subspan(i * k_unit_bytes,
                                                 k_unit_bytes);
    };
    std::vector<seda::crypto::Mac_request> macs(n);
    std::vector<seda::crypto::Baes_engine::Otp_request> otps(n);
    for (std::size_t i = 0; i < n; ++i) {
        const seda::Addr pa = i * k_unit_bytes;
        macs[i] = {unit(i), {pa, 1, 0, 0, static_cast<u32>(i)}};
        otps[i] = {pa, 1};
    }
    std::vector<u64> tags(n);
    std::vector<seda::crypto::Block16> bases(n), pads;

    const auto per_unit_ns = [n](auto&& body) {
        std::vector<double> trials;
        for (int trial = 0; trial < 5; ++trial) {
            u64 reps = 0;
            const Clock::time_point t0 = Clock::now();
            Clock::time_point t1 = t0;
            do {
                body();
                ++reps;
                t1 = Clock::now();
            } while (seconds_between(t0, t1) < 0.01);
            trials.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(reps * n));
        }
        return median(trials);
    };
    Crypto_cost cost;
    cost.mac_ns = per_unit_ns([&] { hmac.positional_macs(macs, tags); });
    cost.enc_ns = per_unit_ns([&] {
        baes.otps_many(otps, bases);
        for (std::size_t i = 0; i < n; ++i)
            baes.crypt_with_base(unit(i), otps[i].pa, otps[i].vn, bases[i], pads);
    });
    return cost;
}

class Infer_workload final : public Workload {
public:
    Infer_workload(const Options& opt, bool through_server)
        : opt_(opt), through_server_(through_server)
    {
    }

    double setup(Gate& gate) override;
    void warm_up(Gate& gate) override;
    Phase run(double seconds, bool traced) override;
    void finish(Gate& gate) override;

private:
    void teardown();
    [[nodiscard]] Secure_memory& memory(u32 tenant);

    Options opt_;
    bool through_server_;
    // Declaration order is destruction order in reverse: lanes reference the
    // sessions and the server, sessions reference the pool, engines
    // reference the binding.
    std::unique_ptr<infer::Model_binding> binding_;
    std::unique_ptr<seda::runtime::Thread_pool> pool_;  ///< infer_session only
    std::unique_ptr<serve::Tenant_table> tenants_;      ///< infer_session only
    std::unique_ptr<serve::Server> server_;             ///< infer_serve only
    std::vector<Lane> lanes_;
    Thread_set pool_threads_, sched_thread_;
    double binding_s_ = 0.0;
    double load_s_ = 0.0;
};

void Infer_workload::teardown()
{
    lanes_.clear();
    server_.reset();
    tenants_.reset();
    pool_.reset();
    binding_.reset();
}

Secure_memory& Infer_workload::memory(u32 tenant)
{
    return through_server_ ? server_->tenant(tenant).session().memory()
                           : tenants_->find(tenant)->session().memory();
}

double Infer_workload::setup(Gate& gate)
{
    teardown();
    const Clock::time_point t0 = Clock::now();
    binding_ = std::make_unique<infer::Model_binding>(seda::models::resnet18(),
                                                      seda::accel::Npu_config::server());
    const Clock::time_point t1 = Clock::now();

    seda::core::Secure_mem_config mem;
    mem.unit_bytes = k_unit_bytes;
    const auto enc = serve::demo_master_key(opt_.seed, k_enc_tag);
    const auto mac = serve::demo_master_key(opt_.seed, k_mac_tag);
    const std::set<int> before = task_ids();
    if (through_server_) {
        serve::Server_config cfg;
        cfg.tenants = k_tenants;
        cfg.workers = k_workers;
        cfg.mem = mem;
        server_ = std::make_unique<serve::Server>(enc, mac, cfg);
        const std::set<int> built = task_ids();
        server_->start();
        pool_threads_ = Thread_set(new_tasks(before, built));
        sched_thread_ = Thread_set(new_tasks(built, task_ids()));
    } else {
        pool_ = std::make_unique<seda::runtime::Thread_pool>(k_workers);
        pool_threads_ = Thread_set(new_tasks(before, task_ids()));
        tenants_ = std::make_unique<serve::Tenant_table>();
        for (std::size_t t = 0; t < k_tenants; ++t) tenants_->add(enc, mac, mem, *pool_);
    }
    lanes_ = std::vector<Lane>(k_tenants);
    for (u32 t = 0; t < k_tenants; ++t) {
        Lane& lane = lanes_[t];
        lane.engine =
            std::make_unique<infer::Inference_engine>(*binding_, engine_config(opt_.seed, t));
        if (through_server_)
            lane.transport = std::make_unique<infer::Server_sink>(*server_, t);
        else
            lane.transport = std::make_unique<infer::Session_sink>(tenants_->find(t)->session());
        lane.sink = std::make_unique<Timing_sink>(*lane.transport);
    }
    const Clock::time_point t2 = Clock::now();
    on_lanes(lanes_, [&](std::size_t t) { lanes_[t].engine->load(*lanes_[t].sink); });
    const Clock::time_point t3 = Clock::now();
    for (const Lane& lane : lanes_) gate.expect(!lane.error, "infer: load() threw");
    binding_s_ = seconds_between(t0, t1);
    load_s_ = seconds_between(t2, t3);
    return seconds_between(t0, t3);
}

void Infer_workload::warm_up(Gate& gate)
{
    if (opt_.fault) {
        // A weight unit every inference reads, tampered after load.
        memory(0).tamper(binding_->weight_load_units().front(), 0, 0x01);
    }
    on_lanes(lanes_, [&](std::size_t t) { lanes_[t].engine->infer(*lanes_[t].sink); });
    const std::vector<infer::Infer_stats> reference = reference_stats(*binding_, opt_.seed);
    for (std::size_t t = 0; t < lanes_.size(); ++t)
        gate.expect(!lanes_[t].error && lanes_[t].engine->stats() == reference[t],
                    "infer: tenant " + std::to_string(t) +
                        " Infer_stats after the first inference differ from the direct-"
                        "session reference");
}

Phase Infer_workload::run(double seconds, bool traced)
{
    std::optional<Server_layers> server_layers;
    if (server_) {
        server_layers.emplace(*server_, sched_thread_);
        server_layers->begin();
    }
    pool_threads_.begin();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<Tally> tallies(lanes_.size(), Tally(t0, deadline));
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
        lanes_[t].sink->begin(&tallies[t], traced);
        lanes_[t].self_ms.clear();
    }
    on_lanes(lanes_, [&](std::size_t t) {
        Lane& lane = lanes_[t];
        for (Clock::time_point now = Clock::now(); now < deadline;) {
            const double sink_ns0 = lane.sink->call_ns();
            lane.engine->infer(*lane.sink);
            const Clock::time_point done = Clock::now();
            const double ms = std::chrono::duration<double, std::milli>(done - now).count();
            tallies[t].cycle(done, ms);
            if (traced) lane.self_ms.push_back(ms - (lane.sink->call_ns() - sink_ns0) / 1e6);
            now = done;
        }
    });
    const double wall = seconds_between(t0, Clock::now());
    for (Lane& lane : lanes_) lane.sink->end();

    Tally all = tallies[0];
    for (std::size_t t = 1; t < tallies.size(); ++t) all.merge(tallies[t]);
    Phase p(all);
    std::vector<double> self_ms;
    Timing_sink::Side writes, reads;
    u64 caller_cpu_ns = 0;
    for (const Lane& lane : lanes_) {
        self_ms.insert(self_ms.end(), lane.self_ms.begin(), lane.self_ms.end());
        writes.calls += lane.sink->writes().calls;
        writes.units += lane.sink->writes().units;
        writes.ns += lane.sink->writes().ns;
        reads.calls += lane.sink->reads().calls;
        reads.units += lane.sink->reads().units;
        reads.ns += lane.sink->reads().ns;
        caller_cpu_ns += lane.sink->cpu_ns();
    }
    if (!traced) return p;

    const double units = static_cast<double>(writes.units + reads.units);
    const double units_per_call = units / static_cast<double>(std::max<u64>(1, writes.calls + reads.calls));
    std::size_t resident = 0;
    for (u32 t = 0; t < lanes_.size(); ++t) resident += memory(t).unit_count();
    p.layers = {
        {"infer.engine_self_ms", median(self_ms), "ms"},
        {"infer.units_per_call", units_per_call, "count"},
        {"infer.sink_ns_per_unit.write", writes.ns / static_cast<double>(std::max<u64>(1, writes.units)), "ns"},
        {"infer.sink_ns_per_unit.read", reads.ns / static_cast<double>(std::max<u64>(1, reads.units)), "ns"},
        {"infer.load_s", load_s_, "s"},
        {"accel.binding_s", binding_s_, "s"},
        {"runtime.pool_busy_frac", pool_threads_.busy_frac(wall), "ratio"},
        {"core.units_resident", static_cast<double>(resident), "count"},
    };
    if (server_layers) {
        server_layers->end(wall, p.layers);
    } else {
        const Crypto_cost cost = crypto_cost(
            std::clamp<std::size_t>(static_cast<std::size_t>(units_per_call + 0.5), 1,
                                    k_max_batch_units),
            opt_.seed);
        const double session_cpu_ns =
            static_cast<double>(caller_cpu_ns) + pool_threads_.cpu_seconds() * 1e9;
        p.layers.push_back({"core.noncrypto_share",
                            1.0 - units * (cost.mac_ns + cost.enc_ns) / session_cpu_ns,
                            "ratio"});
        p.layers.push_back({"crypto.mac_ns_per_unit", cost.mac_ns, "ns"});
        p.layers.push_back({"crypto.enc_ns_per_unit", cost.enc_ns, "ns"});
    }
    return p;
}

void Infer_workload::finish(Gate& gate)
{
    if (server_) server_->drain();
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
        const Lane& lane = lanes_[t];
        const infer::Infer_stats& stats = lane.engine->stats();
        const infer::Unit_counters totals = stats.totals();
        gate.attempted += stats.load.writes + totals.writes + totals.reads;
        const u64 failed = stats.load.failures() + stats.load.data_mismatches +
                           totals.failures() + totals.data_mismatches + (lane.error ? 1 : 0);
        gate.failed += failed;
        gate.expect(failed == 0, "infer: tenant " + std::to_string(t) + " had " +
                                     std::to_string(failed) +
                                     " verification failures, mismatches or throws");
    }
}

}  // namespace

std::unique_ptr<Workload> make_infer(const Options& opt, bool through_server)
{
    return std::make_unique<Infer_workload>(opt, through_server);
}

}  // namespace perfbench
