// Serving-layer benches (google-benchmark): what batching buys over
// serving one request at a time, and what the full closed loop sustains.
//
//   bm_serve_naive             one-request-at-a-time through the SAME front
//                              end (Batch_scheduler windows of 1): every
//                              request pays its own staging, a lone MAC
//                              chain, and the per-dispatch bookkeeping --
//                              the baseline a batching-free server sustains
//   bm_serve_batched/J         the same stream in max_batch windows:
//                              per-tenant conflict-aware coalescing into
//                              Secure_session's bulk path (bulk CTR pads +
//                              lock-step AES-CMAC waves), J workers
//   bm_serve_loadgen/J         the full closed loop end to end (server +
//                              admission queue + client threads), J workers
//
// The acceptance bar for the serving layer is bm_serve_batched/1 >=
// 1.5x bm_serve_naive on items_per_second: the win must come from feeding
// the PR 1-3 bulk machinery coalesced batches, not from extra cores.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "serve/batch_scheduler.h"
#include "serve/loadgen.h"
#include "serve/tenant.h"

using namespace seda;

namespace {

constexpr Bytes k_unit_bytes = 64;
constexpr std::size_t k_tenants = 4;
constexpr std::size_t k_requests = 4096;
constexpr std::size_t k_units_per_tenant = 256;
constexpr std::size_t k_max_batch = 256;

std::vector<u8> make_key(u64 seed)
{
    std::vector<u8> key(16);
    Rng rng(seed);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

/// The benchmark stream: deterministic mixed write/read traffic across all
/// tenants, every read hitting a previously written slot.  Requests carry
/// no promise and no timestamp, so both paths replay them repeatedly.
std::vector<serve::Request> make_stream()
{
    Rng rng(0xBE7C);
    std::vector<serve::Request> stream;
    stream.reserve(k_requests);
    std::vector<std::vector<bool>> written(k_tenants,
                                           std::vector<bool>(k_units_per_tenant, false));
    for (std::size_t i = 0; i < k_requests; ++i) {
        serve::Request r;
        r.tenant_id = static_cast<u32>(rng.next_below(k_tenants));
        const auto slot = static_cast<std::size_t>(rng.next_below(k_units_per_tenant));
        r.addr = slot * k_unit_bytes;
        r.blk_idx = static_cast<u32>(slot);
        const bool write = !written[r.tenant_id][slot] || rng.next_unit() < 0.5;
        r.op = write ? serve::Op::write : serve::Op::read;
        if (write) {
            written[r.tenant_id][slot] = true;
            r.payload.resize(k_unit_bytes);
            for (auto& b : r.payload) b = rng.next_byte();
        }
        stream.push_back(std::move(r));
    }
    return stream;
}

/// Replays the stream through the front end in windows of `window`
/// requests; window 1 IS the naive one-request-at-a-time server.
void serve_stream(std::span<serve::Request> stream, serve::Batch_scheduler& scheduler,
                  std::size_t window)
{
    serve::Serve_stats stats;
    for (std::size_t begin = 0; begin < stream.size(); begin += window) {
        const std::size_t count = std::min(window, stream.size() - begin);
        scheduler.dispatch(stream.subspan(begin, count), stats);
    }
    benchmark::DoNotOptimize(stats);
}

void bm_serve_naive(benchmark::State& state)
{
    runtime::Thread_pool pool(1);
    serve::Tenant_table tenants;
    for (std::size_t t = 0; t < k_tenants; ++t)
        tenants.add(make_key(1), make_key(2),
                    core::Secure_mem_config{k_unit_bytes, true}, pool);
    serve::Batch_scheduler scheduler(tenants);
    auto stream = make_stream();

    for (auto _ : state) serve_stream(stream, scheduler, 1);
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(k_requests));
}
BENCHMARK(bm_serve_naive)->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_serve_batched(benchmark::State& state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    runtime::Thread_pool pool(workers);
    serve::Tenant_table tenants;
    for (std::size_t t = 0; t < k_tenants; ++t)
        tenants.add(make_key(1), make_key(2),
                    core::Secure_mem_config{k_unit_bytes, true}, pool);
    serve::Batch_scheduler scheduler(tenants);
    auto stream = make_stream();

    // The admission loop's shape: pop up to max_batch, dispatch, repeat.
    for (auto _ : state) serve_stream(stream, scheduler, k_max_batch);
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(k_requests));
}
BENCHMARK(bm_serve_batched)->DenseRange(1, 2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_serve_loadgen(benchmark::State& state)
{
    serve::Loadgen_config cfg;
    cfg.tenants = 4;
    cfg.clients = 4;
    cfg.requests = 64;
    cfg.jobs = static_cast<std::size_t>(state.range(0));
    cfg.seed = 0x10AD;
    for (auto _ : state) {
        const auto result = serve::run_loadgen(cfg);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(cfg.tenants * cfg.clients * cfg.requests));
}
BENCHMARK(bm_serve_loadgen)->DenseRange(1, 2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
