#include "attack/campaign.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "attack/fault_injector.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/attacks.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/run_infer.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace seda::attack {

namespace {

using core::Verify_status;

constexpr Bytes k_unit = 64;
constexpr std::size_t k_bg_units_per_client = 8;  ///< slots each background client owns
constexpr std::size_t k_evict_attempts = 3;       ///< post-evict submits the swap probes
constexpr u32 k_swap_layer = 0x7A;                ///< hot-swap probe MAC-context layer

/// Address of probe unit `which` (0 or 1) of fault `fault_index`.  The
/// probe region starts above every background client's slot range, and
/// every fault owns two dedicated units, so no fault ever aliases
/// legitimate traffic or another fault -- on any tenant.
Addr fault_addr(const Campaign_config& cfg, u32 fault_index, u32 which)
{
    const Addr base =
        static_cast<Addr>(cfg.clients + 8) * k_bg_units_per_client * k_unit;
    return base + (static_cast<Addr>(fault_index) * 2 + which) * k_unit;
}

std::vector<u8> random_payload(Rng& rng)
{
    std::vector<u8> p(k_unit);
    for (u8& b : p) b = rng.next_byte();
    return p;
}

serve::Request make_request(u32 tenant, serve::Op op, Addr addr, u32 layer_id,
                            u32 fmap_idx, u32 blk_idx, std::vector<u8> payload = {})
{
    serve::Request r;
    r.tenant_id = tenant;
    r.op = op;
    r.addr = addr;
    r.payload = std::move(payload);
    r.layer_id = layer_id;
    r.fmap_idx = fmap_idx;
    r.blk_idx = blk_idx;
    return r;
}

/// One closed-loop background client, loadgen-shaped: first touch writes,
/// then a 50/50 op mix over its private slots with full mirror checking.
/// Its whole stream is a pure function of (seed, tenant, client), so every
/// run -- campaign or control, any --jobs -- sees identical traffic.
void background_client(serve::Server& server, const Campaign_config& cfg, u32 tenant,
                       u32 client, u64& failures)
{
    Rng rng(serve::client_seed(cfg.seed ^ 0xB6C0DEULL, tenant, client));
    const Addr base = static_cast<Addr>(client) * k_bg_units_per_client * k_unit;
    std::vector<std::vector<u8>> mirror(k_bg_units_per_client);
    u64 local = 0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        const u64 slot = rng.next_below(k_bg_units_per_client);
        const Addr addr = base + slot * k_unit;
        const bool do_write = mirror[slot].empty() || rng.next_below(2) == 0;
        if (do_write) {
            auto payload = random_payload(rng);
            mirror[slot] = payload;
            auto req = make_request(tenant, serve::Op::write, addr, tenant, client,
                                    static_cast<u32>(slot), std::move(payload));
            if (server.submit(std::move(req)).get().status != Verify_status::ok) ++local;
        } else {
            auto req = make_request(tenant, serve::Op::read, addr, tenant, client,
                                    static_cast<u32>(slot));
            const serve::Response resp = server.submit(std::move(req)).get();
            if (resp.status != Verify_status::ok || resp.payload != mirror[slot]) ++local;
        }
    }
    failures = local;
}

/// Forensic `inject` flight event, called from INSIDE an armed fault
/// closure: the timestamp lands at the flush-head pull where the fault
/// actually executes on the bus, not at arming time -- so a flight dump
/// shows the injection ordered between the flushes it really fell between.
/// The fault kind rides in the event's `n` field.
void log_inject(u32 tenant, Addr addr, Fault_kind kind)
{
    obs::Flight_recorder::record(obs::Flight_kind::inject, tenant, addr,
                                 static_cast<u64>(kind), 0);
    // Live injection counter, bumped at the moment the fault executes on
    // the bus: a --watch or /metrics scrape mid-campaign sees the count
    // climb instead of jumping at exit.
    static const obs::Counter injected = obs::enabled()
        ? obs::Metrics_registry::instance().counter("attack_faults_injected_total")
        : obs::Counter{};
    injected.add(1);
}

struct Prober_outcome {
    u64 surprises = 0;  ///< responses whose status broke the fault's contract
    std::size_t seca_probes = 0;
    std::size_t seca_recoveries = 0;
};

/// Executes one victim tenant's share of the plan, in plan order: write
/// the probe units, arm the fault through the tap, then read them back and
/// check each response against the fault's exact detection contract.  With
/// inject=false the same request stream runs unarmed (the control run),
/// and every probe must verify ok.
void run_prober(serve::Server& server, Fault_injector& tap, const Campaign_config& cfg,
                const Fault_plan& plan, u32 tenant, bool inject, Prober_outcome& out)
{
    obs::Stage_span span(obs::Stage::attack_probe);
    u64 sm = cfg.seed ^ (0xFA417ULL + tenant);
    Rng rng(splitmix64(sm));
    core::Secure_memory& mem = server.tenant(tenant).session().memory();
    core::Secure_memory& donor = server.tenant(0).session().memory();

    const auto submit_write = [&](u32 t, Addr addr, const Fault& f,
                                  std::vector<u8> payload) {
        auto req = make_request(t, serve::Op::write, addr, f.layer_id, f.tensor_kind,
                                f.index, std::move(payload));
        if (server.submit(std::move(req)).get().status != Verify_status::ok)
            ++out.surprises;
    };
    const auto probe_read = [&](Addr addr, const Fault& f, Verify_status expect) {
        auto req =
            make_request(tenant, serve::Op::read, addr, f.layer_id, f.tensor_kind, f.index);
        if (server.submit(std::move(req)).get().status != expect) ++out.surprises;
    };

    for (const Fault& f : plan.faults) {
        if (f.tenant != tenant) continue;
        const Addr a = fault_addr(cfg, f.index, 0);
        const Addr b = fault_addr(cfg, f.index, 1);
        switch (f.kind) {
            case Fault_kind::tamper:
                submit_write(tenant, a, f, random_payload(rng));
                if (inject)
                    tap.arm([&mem, a, f, tenant] {
                        log_inject(tenant, a, f.kind);
                        mem.tamper(a, f.byte_offset, f.xor_mask);
                    });
                probe_read(a, f, inject ? Verify_status::mac_mismatch : Verify_status::ok);
                break;
            case Fault_kind::mac_corrupt:
                submit_write(tenant, a, f, random_payload(rng));
                if (inject)
                    tap.arm([&mem, a, f, tenant] {
                        log_inject(tenant, a, f.kind);
                        mem.corrupt_mac(a, 1ULL << (f.byte_offset % 64));
                    });
                probe_read(a, f, inject ? Verify_status::mac_mismatch : Verify_status::ok);
                break;
            case Fault_kind::splice:
                // The donor unit lives in tenant 0 at the same address with
                // the same context -- only the keys differ, which is
                // exactly what the spliced MAC must trip over.
                submit_write(0, a, f, random_payload(rng));
                submit_write(tenant, a, f, random_payload(rng));
                if (inject)
                    tap.arm([&mem, &donor, a, tenant] {
                        log_inject(tenant, a, Fault_kind::splice);
                        crypto::splice_unit(mem, a, donor, a);
                    });
                probe_read(a, f, inject ? Verify_status::mac_mismatch : Verify_status::ok);
                break;
            case Fault_kind::shuffle:
                submit_write(tenant, a, f, random_payload(rng));
                submit_write(tenant, b, f, random_payload(rng));
                if (inject)
                    tap.arm([&mem, a, b, tenant] {
                        log_inject(tenant, a, Fault_kind::shuffle);
                        mem.swap_units(a, b);
                    });
                probe_read(a, f, inject ? Verify_status::mac_mismatch : Verify_status::ok);
                probe_read(b, f, inject ? Verify_status::mac_mismatch : Verify_status::ok);
                break;
            case Fault_kind::rollback: {
                auto capsule = std::make_shared<crypto::Rollback_capsule>();
                submit_write(tenant, a, f, random_payload(rng));
                if (inject) tap.arm([&mem, a, capsule] { capsule->capture(mem, a); });
                // Sync read: completes only after a pull ran the capture, so
                // the snapshot provably predates the next write.  Verifies
                // ok in BOTH runs (a snapshot mutates nothing).
                probe_read(a, f, Verify_status::ok);
                submit_write(tenant, a, f, random_payload(rng));
                if (inject)
                    tap.arm([&mem, a, capsule, tenant] {
                        log_inject(tenant, a, Fault_kind::rollback);
                        capsule->replay(mem);
                    });
                probe_read(a, f,
                           inject ? Verify_status::replay_detected : Verify_status::ok);
                break;
            }
            case Fault_kind::seca_probe: {
                // Passive probe: store a ReLU-sparse unit, snapshot its
                // ciphertext through the tap, run Algorithm 1 offline.
                // Zero detections expected -- the sync read must verify ok
                // -- and under B-AES zero recovery too.
                auto sparse = crypto::make_sparse_plaintext(k_unit, 0.75, rng);
                const std::vector<u8> oracle = sparse;
                submit_write(tenant, a, f, std::move(sparse));
                auto snap = std::make_shared<core::Secure_memory::Stored_unit>();
                if (inject)
                    tap.arm([&mem, a, snap, tenant] {
                        log_inject(tenant, a, Fault_kind::seca_probe);
                        *snap = mem.snapshot(a);
                    });
                probe_read(a, f, Verify_status::ok);
                ++out.seca_probes;
                if (inject) {
                    const auto seca =
                        crypto::seca_attack(snap->ciphertext, crypto::Block16{}, oracle);
                    if (seca.success()) ++out.seca_recoveries;
                }
                break;
            }
            case Fault_kind::count_: break;
        }
    }
}

/// The model hot-swap scenario, run on the driver thread while every other
/// tenant's traffic continues: clean ops on the outgoing tenant, evict,
/// prove the tombstone (counted rejects), re-provision via add_tenant, and
/// probe the replacement -- including one tamper, so detection attribution
/// follows the tenant id across the swap.
u32 run_hot_swap(serve::Server& server, Fault_injector& tap, const Campaign_config& cfg,
                 u32 swap_id, bool inject, u64& surprises)
{
    u64 sm = cfg.seed ^ 0x5A4DULL;
    Rng rng(splitmix64(sm));
    const Addr a0 = fault_addr(cfg, 0, 0);
    const Addr a1 = fault_addr(cfg, 0, 1);

    const auto write_ok = [&](u32 t, Addr addr, u32 blk) {
        auto req = make_request(t, serve::Op::write, addr, k_swap_layer, 0, blk,
                                random_payload(rng));
        if (server.submit(std::move(req)).get().status != Verify_status::ok) ++surprises;
    };
    const auto read_expect = [&](u32 t, Addr addr, u32 blk, Verify_status expect) {
        auto req = make_request(t, serve::Op::read, addr, k_swap_layer, 0, blk);
        if (server.submit(std::move(req)).get().status != expect) ++surprises;
    };

    write_ok(swap_id, a0, 0);
    read_expect(swap_id, a0, 0, Verify_status::ok);

    server.evict_tenant(swap_id);
    for (std::size_t k = 0; k < k_evict_attempts; ++k) {
        try {
            (void)server.submit(make_request(swap_id, serve::Op::write, a0, k_swap_layer,
                                             0, 0, std::vector<u8>(k_unit, 0)));
            ++surprises;  // the tombstone must throw
        } catch (const Seda_error&) {
            // counted by the server as stats().evicted_rejects
        }
    }

    const u32 fresh = server.add_tenant();
    core::Secure_memory& mem = server.tenant(fresh).session().memory();
    mem.set_dram_tap(&tap);

    write_ok(fresh, a0, 0);
    write_ok(fresh, a1, 1);
    if (inject)
        tap.arm([&mem, a1, fresh] {
            log_inject(fresh, a1, Fault_kind::tamper);
            mem.tamper(a1, 5, 0x40);
        });
    read_expect(fresh, a1, 1, inject ? Verify_status::mac_mismatch : Verify_status::ok);
    read_expect(fresh, a0, 0, Verify_status::ok);
    return fresh;
}

/// Picks the tampered weight unit for the inference victim: a unit the
/// traces READ but never write (so the fault survives the whole run),
/// chosen deterministically from the seed.
Addr pick_infer_target(const infer::Model_binding& binding, u64 seed)
{
    std::vector<Addr> candidates;
    for (const Addr addr : binding.weight_load_units()) {
        bool written = false;
        for (const auto& layer : binding.sim().layers)
            for (const auto& r : layer.trace) {
                if (!r.is_write) continue;
                if (addr >= r.first_block() && addr < r.end_block()) written = true;
            }
        if (!written) candidates.push_back(addr);
    }
    require(!candidates.empty(), "attack: model has no read-only weight unit to target");
    u64 sm = seed ^ 0x1FE27A6ULL;
    Rng rng(splitmix64(sm));
    return candidates[rng.next_below(candidates.size())];
}

/// How many times each layer's trace reads `target` as a weight unit: the
/// per-layer mac_mismatch count one tampered weight must produce per
/// inference pass.
std::vector<u64> weight_reads_per_layer(const infer::Model_binding& binding, Addr target)
{
    std::vector<u64> counts(binding.sim().layers.size(), 0);
    for (std::size_t i = 0; i < binding.sim().layers.size(); ++i)
        for (const auto& r : binding.sim().layers[i].trace) {
            if (r.is_write || r.tensor != accel::Tensor_kind::weight) continue;
            accel::for_each_block(r, [&](Addr a) {
                if (a == target) ++counts[i];
            });
        }
    return counts;
}

/// One inference engine over the server transport.  The victim arms a
/// weight tamper between load and the inference passes; the control engine
/// runs the identical workload untouched.
void run_infer_engine(serve::Server& server, Fault_injector& tap,
                      const Campaign_config& cfg, const infer::Model_binding& binding,
                      u32 tenant, bool arm_tamper, Addr target, infer::Infer_stats& out)
{
    infer::Inference_engine engine(binding, {infer::tenant_seed(cfg.seed, tenant), 4096});
    infer::Server_sink sink(server, tenant);
    engine.load(sink);
    if (arm_tamper) {
        core::Secure_memory& mem = server.tenant(tenant).session().memory();
        tap.arm([&mem, target, tenant] {
            log_inject(tenant, target, Fault_kind::tamper);
            mem.tamper(target, 7, 0x20);
        });
    }
    for (std::size_t i = 0; i < cfg.inferences; ++i) engine.infer(sink);
    out = engine.stats();
}

struct Run_out {
    serve::Serve_stats stats;
    u64 surprises = 0;
    u64 background_failures = 0;
    std::size_t seca_probes = 0;
    std::size_t seca_recoveries = 0;
    u64 executed = 0;
    u32 replacement = k_no_tenant;
    infer::Infer_stats infer_victim;
    infer::Infer_stats infer_control;
};

}  // namespace

void Campaign_ledger::expect(u32 tenant, const serve::Failure_record& rec)
{
    if (expected.size() <= tenant) expected.resize(tenant + 1);
    expected[tenant].push_back(rec);
}

bool Campaign_ledger::exact(const serve::Serve_stats& stats) const
{
    static const std::vector<serve::Failure_record> k_none;
    for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
        const auto& want = t < expected.size() ? expected[t] : k_none;
        if (stats.tenants[t].failures != want) return false;
    }
    // A tenant we expect failures from must exist in the stats at all.
    for (std::size_t t = stats.tenants.size(); t < expected.size(); ++t)
        if (!expected[t].empty()) return false;
    return true;
}

u64 Campaign_ledger::surplus(const serve::Serve_stats& stats) const
{
    u64 extra = 0;
    for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
        const std::size_t want = t < expected.size() ? expected[t].size() : 0;
        const std::size_t got = stats.tenants[t].failures.size();
        if (got > want) extra += got - want;
    }
    return extra;
}

u64 Campaign_ledger::expected_count(core::Verify_status status) const
{
    u64 n = 0;
    for (const auto& tenant : expected)
        for (const auto& rec : tenant)
            if (rec.status == status) ++n;
    return n;
}

Campaign_result run_campaign(const Campaign_config& cfg)
{
    require(cfg.tenants >= 2, "run_campaign: need tenant 0 (control) plus >= 1 victim");
    require(cfg.clients >= 1 && cfg.requests >= 1,
            "run_campaign: background traffic is the point -- configure some");

    const Fault_plan plan = make_fault_plan(cfg.seed, cfg.tenants, cfg.faults, cfg.kinds);

    // Tenant layout: request tenants first (0 = control/donor, 1.. =
    // victims), then the hot-swap tenant, then the inference pair.  The
    // hot-swap replacement id is whatever add_tenant() returns -- dense
    // ids make that the table size, identically in campaign and control.
    u32 next = cfg.tenants;
    const u32 swap_id = cfg.hot_swap ? next++ : k_no_tenant;
    const u32 infer_victim_id = cfg.infer_traffic ? next++ : k_no_tenant;
    const u32 infer_control_id = cfg.infer_traffic ? next++ : k_no_tenant;
    const u32 initial_tenants = next;

    std::optional<infer::Model_binding> binding;
    Addr infer_target = 0;
    std::vector<u64> target_reads;
    if (cfg.infer_traffic) {
        binding.emplace(models::model_by_name(cfg.model), accel::Npu_config::server());
        infer_target = pick_infer_target(*binding, cfg.seed);
        target_reads = weight_reads_per_layer(*binding, infer_target);
    }

    const auto one_run = [&](bool inject) {
        Run_out out;
        Fault_injector injector;  // outlives the server => outlives every pull
        serve::Server_config scfg;
        scfg.tenants = initial_tenants;
        scfg.workers = cfg.jobs;
        scfg.mem.unit_bytes = k_unit;
        serve::Server server(serve::demo_master_key(cfg.seed, 0xA77AC2ULL),
                             serve::demo_master_key(cfg.seed, 0x3A77AC2ULL), scfg);
        for (u32 t = 0; t < initial_tenants; ++t)
            server.tenant(t).session().memory().set_dram_tap(&injector);
        server.start();

        std::vector<u64> bg_failures(cfg.tenants * cfg.clients, 0);
        std::vector<Prober_outcome> prober_out(cfg.tenants);
        std::vector<std::thread> threads;
        for (u32 t = 0; t < cfg.tenants; ++t)
            for (u32 c = 0; c < cfg.clients; ++c)
                threads.emplace_back([&, t, c] {
                    background_client(server, cfg, t, c,
                                      bg_failures[t * cfg.clients + c]);
                });
        for (u32 t = 1; t < cfg.tenants; ++t)
            threads.emplace_back([&, t] {
                run_prober(server, injector, cfg, plan, t, inject, prober_out[t]);
            });
        if (cfg.infer_traffic) {
            threads.emplace_back([&] {
                run_infer_engine(server, injector, cfg, *binding, infer_victim_id,
                                 inject, infer_target, out.infer_victim);
            });
            threads.emplace_back([&] {
                run_infer_engine(server, injector, cfg, *binding, infer_control_id,
                                 false, 0, out.infer_control);
            });
        }
        if (cfg.hot_swap)
            out.replacement =
                run_hot_swap(server, injector, cfg, swap_id, inject, out.surprises);
        for (std::thread& th : threads) th.join();
        server.drain();
        server.stop();

        out.stats = server.stats();
        for (const u64 f : bg_failures) out.background_failures += f;
        for (const Prober_outcome& p : prober_out) {
            out.surprises += p.surprises;
            out.seca_probes += p.seca_probes;
            out.seca_recoveries += p.seca_recoveries;
        }
        out.executed = injector.executed();
        return out;
    };

    const auto t0 = std::chrono::steady_clock::now();
    const Run_out campaign = one_run(true);
    const auto t1 = std::chrono::steady_clock::now();

    Campaign_result res;
    res.plan = plan;
    res.stats = campaign.stats;
    res.probe_surprises = campaign.surprises;
    res.background_failures = campaign.background_failures;
    res.seca_probes = campaign.seca_probes;
    res.seca_recoveries = campaign.seca_recoveries;
    res.faults_injected = campaign.executed;
    res.evicted_rejects = campaign.stats.evicted_rejects;
    res.expected_evicted_rejects = cfg.hot_swap ? k_evict_attempts : 0;
    res.swap_tenant = swap_id;
    res.replacement_tenant = campaign.replacement;
    res.infer_victim_tenant = infer_victim_id;
    res.infer_control_tenant = infer_control_id;
    res.infer_victim = campaign.infer_victim;
    res.infer_control = campaign.infer_control;
    res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

    // ---- build the ledger: every failure the campaign run MUST show ----
    Campaign_ledger& ledger = res.ledger;
    for (const Fault& f : plan.faults) {
        const Addr a = fault_addr(cfg, f.index, 0);
        const Addr b = fault_addr(cfg, f.index, 1);
        const Verify_status status = Fault_plan::expected_status(f.kind);
        switch (f.kind) {
            case Fault_kind::shuffle:
                ledger.expect(f.tenant, {a, f.layer_id, f.tensor_kind, f.index, status});
                ledger.expect(f.tenant, {b, f.layer_id, f.tensor_kind, f.index, status});
                break;
            case Fault_kind::seca_probe: break;  // passive: nothing to detect
            default:
                ledger.expect(f.tenant, {a, f.layer_id, f.tensor_kind, f.index, status});
                break;
        }
    }
    if (cfg.hot_swap && campaign.replacement != k_no_tenant)
        ledger.expect(campaign.replacement, {fault_addr(cfg, 0, 1), k_swap_layer, 0, 1,
                                             Verify_status::mac_mismatch});
    if (cfg.infer_traffic) {
        const auto ctx = binding->context(infer_target);
        for (std::size_t pass = 0; pass < cfg.inferences; ++pass)
            for (const u64 reads : target_reads)
                for (u64 i = 0; i < reads; ++i)
                    ledger.expect(infer_victim_id,
                                  {infer_target, ctx.layer_id, ctx.fmap_idx, ctx.blk_idx,
                                   Verify_status::mac_mismatch});
    }

    res.attribution_exact = ledger.exact(campaign.stats);
    res.false_positives = ledger.surplus(campaign.stats);
    res.expected_mac_mismatch = ledger.expected_count(Verify_status::mac_mismatch);
    res.expected_replay_detected = ledger.expected_count(Verify_status::replay_detected);
    const serve::Tenant_counters totals = campaign.stats.totals();
    res.detected_mac_mismatch = totals.mac_mismatch;
    res.detected_replay_detected = totals.replay_detected;

    // Engine-side attribution for the inference victim: the tampered
    // weight must surface in exactly the layers (and only the tensor kind)
    // that stream it, `reads x inferences` times each.
    if (cfg.infer_traffic) {
        for (const u64 reads : target_reads)
            res.infer_expected_failures += reads * cfg.inferences;
        res.infer_detected_failures = campaign.infer_victim.totals().mac_mismatch +
                                      campaign.infer_victim.totals().replay_detected;
        for (std::size_t i = 0; i < target_reads.size(); ++i) {
            const infer::Unit_counters& w = campaign.infer_victim.layers[i].weight;
            if (w.mac_mismatch != target_reads[i] * cfg.inferences ||
                w.replay_detected != 0)
                res.attribution_exact = false;
            for (const infer::Unit_failure& fail : w.failure_log)
                if (fail.addr != infer_target ||
                    fail.status != Verify_status::mac_mismatch)
                    res.attribution_exact = false;
        }
        if (campaign.infer_control.totals().mac_mismatch +
                campaign.infer_control.totals().replay_detected !=
            0)
            res.attribution_exact = false;
    }

    // ---- control run: same seed, tap never armed ----------------------
    if (cfg.control_run) {
        const Run_out control = one_run(false);
        res.control_checked = true;
        res.control_identical = true;
        // The control run itself must be spotless everywhere...
        if (control.stats.totals().mac_mismatch + control.stats.totals().replay_detected +
                control.surprises + control.background_failures !=
            0)
            res.control_identical = false;
        // ...and every untouched tenant's campaign row must equal its
        // control row, field for field (zero perturbation of bystanders).
        std::vector<u32> untouched = {0};
        if (cfg.hot_swap) untouched.push_back(swap_id);
        if (cfg.infer_traffic) untouched.push_back(infer_control_id);
        for (const u32 t : untouched) {
            if (t >= campaign.stats.tenants.size() || t >= control.stats.tenants.size()) {
                res.control_identical = false;
                continue;
            }
            if (!(campaign.stats.tenants[t] == control.stats.tenants[t]))
                res.control_identical = false;
        }
        if (cfg.infer_traffic && !(campaign.infer_control == control.infer_control))
            res.control_identical = false;
    }

    // attack_faults_injected_total is counted live at the injection sites
    // (log_inject); only the detection tally is an end-of-run export.
    obs::Metrics_registry::instance().counter("attack_faults_detected_total")
        .add(res.detected_mac_mismatch + res.detected_replay_detected);

    return res;
}

}  // namespace seda::attack
