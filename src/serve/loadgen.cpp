#include "serve/loadgen.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/stage.h"
#include "serve/server.h"

namespace seda::serve {

namespace {

/// What one client accumulates; summed after join (deterministic).
struct Client_tally {
    u64 status_failures = 0;
    u64 data_mismatches = 0;
};

/// One closed-loop client: write-or-read its own slots, verify every
/// response against a local mirror of its own writes.
void client_loop(Server& server, const Loadgen_config& cfg, u32 tenant, u32 client,
                 Client_tally& tally)
{
    // One span per client lifetime: the trace view shows every closed loop
    // as a lane-long bar, so stragglers stand out against the batch lanes.
    // (Built by append: GCC 12 -Wrestrict false-positives on chained
    // operator+ here, PR105651.)
    std::string span_name = "t";
    span_name += std::to_string(tenant);
    span_name += ".c";
    span_name += std::to_string(client);
    obs::Stage_span span(obs::Stage::client, span_name);
    // Live per-response counter: the --watch differ and the scrape endpoint
    // see progress DURING the run, not just the end-of-run summary.
    static const obs::Counter live_requests = obs::enabled()
        ? obs::Metrics_registry::instance().counter("loadgen_requests_total")
        : obs::Counter{};
    Rng rng(client_seed(cfg.seed, tenant, client));
    const Addr base = static_cast<Addr>(client) * cfg.units_per_client * cfg.unit_bytes;
    std::vector<std::vector<u8>> mirror(cfg.units_per_client);

    for (std::size_t r = 0; r < cfg.requests; ++r) {
        const auto slot = static_cast<std::size_t>(rng.next_below(cfg.units_per_client));
        // First touch of a slot must be a write (a read would be rejected);
        // afterwards a fair coin keeps the op mix near 50/50.
        const bool write = mirror[slot].empty() || rng.next_unit() < 0.5;

        Request req;
        req.tenant_id = tenant;
        req.client_id = client;
        req.seq = r;
        req.op = write ? Op::write : Op::read;
        req.addr = base + slot * cfg.unit_bytes;
        req.layer_id = tenant;
        req.fmap_idx = client;
        req.blk_idx = static_cast<u32>(slot);
        if (write) {
            req.payload.resize(cfg.unit_bytes);
            for (auto& b : req.payload) b = rng.next_byte();
            mirror[slot] = req.payload;
        }

        Response resp = server.submit(std::move(req)).get();
        live_requests.add(1);
        if (resp.status != core::Verify_status::ok) {
            ++tally.status_failures;
            continue;
        }
        if (!write && resp.payload != mirror[slot]) ++tally.data_mismatches;
    }
}

}  // namespace

u64 client_seed(u64 seed, u32 tenant, u32 client)
{
    // Injective pre-mix (tenant/client land in disjoint bit ranges), then
    // SplitMix64 to decorrelate neighbouring ids.
    u64 state = seed ^ (static_cast<u64>(tenant) << 32) ^ (static_cast<u64>(client) + 1);
    return splitmix64(state);
}

std::vector<u8> demo_master_key(u64 seed, u64 tag)
{
    u64 state = seed ^ tag;
    std::vector<u8> key(16);
    for (auto& b : key) b = static_cast<u8>(splitmix64(state));
    return key;
}

Loadgen_result run_loadgen(const Loadgen_config& cfg)
{
    require(cfg.tenants >= 1 && cfg.clients >= 1 && cfg.requests >= 1,
            "loadgen: tenants, clients and requests must all be >= 1");
    require(cfg.units_per_client >= 1, "loadgen: units_per_client must be >= 1");

    Server_config server_cfg;
    server_cfg.tenants = cfg.tenants;
    server_cfg.workers = cfg.jobs;
    server_cfg.max_wait_us = cfg.max_wait_us;
    server_cfg.mem.unit_bytes = cfg.unit_bytes;

    Server server(demo_master_key(cfg.seed, 0xE5C0DE),
                  demo_master_key(cfg.seed, 0x3A5C0DE), server_cfg);
    server.start();

    std::vector<Client_tally> tallies(cfg.tenants * cfg.clients);
    std::vector<std::thread> clients;
    clients.reserve(tallies.size());

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < cfg.tenants; ++t)
        for (std::size_t c = 0; c < cfg.clients; ++c)
            clients.emplace_back(client_loop, std::ref(server), std::cref(cfg),
                                 static_cast<u32>(t), static_cast<u32>(c),
                                 std::ref(tallies[t * cfg.clients + c]));
    for (auto& th : clients) th.join();
    server.drain();
    const auto t1 = std::chrono::steady_clock::now();
    server.stop();

    Loadgen_result result;
    result.stats = server.stats();
    result.total_requests = static_cast<u64>(cfg.tenants * cfg.clients * cfg.requests);
    for (const Client_tally& tally : tallies) {
        result.status_failures += tally.status_failures;
        result.data_mismatches += tally.data_mismatches;
    }
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
}

}  // namespace seda::serve
