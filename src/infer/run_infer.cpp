#include "infer/run_infer.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/unit_sink.h"
#include "runtime/thread_pool.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace seda::infer {

namespace {

void run_tenant(Inference_engine& engine, Unit_sink& sink, std::size_t inferences)
{
    engine.load(sink);
    // Live per-inference counter: gives the --watch differ and the scrape
    // endpoint a rate signal while the replay is still running.
    static const obs::Counter live_inferences = obs::enabled()
        ? obs::Metrics_registry::instance().counter("infer_inferences_total")
        : obs::Counter{};
    for (std::size_t i = 0; i < inferences; ++i) {
        engine.infer(sink);
        live_inferences.add(1);
    }
}

}  // namespace

u64 tenant_seed(u64 seed, u32 tenant)
{
    u64 state = seed ^ (static_cast<u64>(tenant) + 0x1F2E3D4C) * 0x9E3779B97F4A7C15ULL;
    return splitmix64(state);
}

Infer_result run_infer(const accel::Model_desc& model, const accel::Npu_config& npu,
                       const Infer_config& cfg)
{
    require(cfg.tenants >= 1 && cfg.inferences >= 1,
            "run_infer: tenants and inferences must be >= 1");

    const Model_binding binding(model, npu);

    std::vector<std::unique_ptr<Inference_engine>> engines;
    engines.reserve(cfg.tenants);
    for (std::size_t t = 0; t < cfg.tenants; ++t)
        engines.push_back(std::make_unique<Inference_engine>(
            binding, Engine_config{tenant_seed(cfg.seed, static_cast<u32>(t))}));

    core::Secure_mem_config mem;
    mem.unit_bytes = Model_binding::k_unit_bytes;

    const auto t0 = std::chrono::steady_clock::now();
    if (cfg.path == Replay_path::serve) {
        serve::Server_config server_cfg;
        server_cfg.tenants = cfg.tenants;
        server_cfg.workers = cfg.jobs;
        server_cfg.max_wait_us = cfg.max_wait_us;
        server_cfg.mem = mem;
        serve::Server server(serve::demo_master_key(cfg.seed, 0x1FE2),
                             serve::demo_master_key(cfg.seed, 0x3AC5), server_cfg);
        server.start();

        std::vector<std::thread> threads;
        threads.reserve(cfg.tenants);
        for (std::size_t t = 0; t < cfg.tenants; ++t)
            threads.emplace_back([&, t] {
                Server_sink sink(server, static_cast<u32>(t));
                run_tenant(*engines[t], sink, cfg.inferences);
            });
        for (auto& th : threads) th.join();
        server.drain();
        server.stop();
    } else {
        // Direct path: per-tenant sessions (derived keys, own memory) over
        // one shared crypto pool; tenant threads dispatch concurrently,
        // which the shared-pool session contract allows.
        runtime::Thread_pool pool(cfg.jobs);
        serve::Tenant_table tenants;
        const auto enc = serve::demo_master_key(cfg.seed, 0x1FE2);
        const auto mac = serve::demo_master_key(cfg.seed, 0x3AC5);
        for (std::size_t t = 0; t < cfg.tenants; ++t) tenants.add(enc, mac, mem, pool);

        std::vector<std::thread> threads;
        threads.reserve(cfg.tenants);
        for (std::size_t t = 0; t < cfg.tenants; ++t)
            threads.emplace_back([&, t] {
                Session_sink sink(tenants.find(static_cast<u32>(t))->session());
                run_tenant(*engines[t], sink, cfg.inferences);
            });
        for (auto& th : threads) th.join();
    }
    const auto t1 = std::chrono::steady_clock::now();

    Infer_result result;
    result.per_tenant.reserve(cfg.tenants);
    for (const auto& engine : engines) {
        result.per_tenant.push_back(engine->stats());
        result.merged.merge(engine->stats());
    }
    // Per-tenant scrape rows (one shot per run; counters accumulate across
    // runs in one process like every registry metric).
    if (obs::enabled()) {
        auto& reg = obs::Metrics_registry::instance();
        for (std::size_t t = 0; t < result.per_tenant.size(); ++t) {
            const Unit_counters tc = result.per_tenant[t].totals();
            const std::string id = std::to_string(t);
            reg.counter("infer_tenant_reads_total", "tenant", id).add(tc.reads);
            reg.counter("infer_tenant_writes_total", "tenant", id).add(tc.writes);
            reg.counter("infer_tenant_ok_total", "tenant", id).add(tc.ok);
            reg.counter("infer_tenant_failures_total", "tenant", id).add(tc.failures());
            reg.counter("infer_tenant_bytes_total", "tenant", id).add(tc.bytes);
        }
    }
    const Unit_counters totals = result.merged.totals();
    result.verification_failures = totals.failures() + result.merged.load.failures();
    result.data_mismatches = totals.data_mismatches + result.merged.load.data_mismatches;
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
}

}  // namespace seda::infer
