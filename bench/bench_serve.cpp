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
//   bm_serve_pipelined/P       P producer threads with 64 requests each
//                              outstanding through a live Server (2 pool
//                              workers): the front door under contention --
//                              concurrent submits, the admission ring, and
//                              completions delivered off the scheduler
//                              thread, which bm_serve_batched (one thread
//                              calling dispatch) cannot show
//
// The acceptance bar for the serving layer is bm_serve_batched/1 >=
// 1.5x bm_serve_naive on items_per_second: the win must come from feeding
// the PR 1-3 bulk machinery coalesced batches, not from extra cores.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "serve/batch_scheduler.h"
#include "serve/loadgen.h"
#include "serve/server.h"
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

constexpr std::size_t k_depth = 64;  ///< outstanding requests per producer
constexpr std::size_t k_requests_per_producer = 4096;

/// One producer's closed loop: k_depth requests in flight over its own
/// k_units_per_tenant / 4 slots of every tenant, each reply awaited before
/// its slot of the ring is reissued.  A slot's first touch is a write, so
/// every read hits; half of the rest are reads.
void pump(serve::Server& server, u32 producer)
{
    constexpr std::size_t k_own = k_units_per_tenant / 4;
    Rng rng(0x51DE + producer);
    std::vector<std::vector<bool>> written(k_tenants, std::vector<bool>(k_own, false));
    std::array<std::future<serve::Response>, k_depth> ring;
    for (std::size_t i = 0; i < k_requests_per_producer; ++i) {
        std::future<serve::Response>& slot = ring[i % k_depth];
        if (slot.valid()) {
            const serve::Response r = slot.get();
            benchmark::DoNotOptimize(r);
        }
        serve::Request req;
        req.tenant_id = static_cast<u32>(rng.next_below(k_tenants));
        req.client_id = producer;
        req.seq = i;
        const auto local = static_cast<std::size_t>(rng.next_below(k_own));
        const std::size_t unit = producer * k_own + local;
        req.addr = unit * k_unit_bytes;
        req.blk_idx = static_cast<u32>(unit);
        const bool write = !written[req.tenant_id][local] || rng.next_unit() < 0.5;
        req.op = write ? serve::Op::write : serve::Op::read;
        if (write) {
            written[req.tenant_id][local] = true;
            req.payload.resize(k_unit_bytes);
            for (auto& b : req.payload) b = rng.next_byte();
        }
        slot = server.submit(std::move(req));
    }
    for (auto& slot : ring)
        if (slot.valid()) {
            const serve::Response r = slot.get();
            benchmark::DoNotOptimize(r);
        }
}

void bm_serve_pipelined(benchmark::State& state)
{
    const auto producers = static_cast<u32>(state.range(0));
    serve::Server server(make_key(1), make_key(2),
                         {.tenants = k_tenants,
                          .workers = 2,
                          .mem = core::Secure_mem_config{k_unit_bytes, true}});
    server.start();
    for (auto _ : state) {
        std::vector<std::thread> threads;
        for (u32 p = 0; p < producers; ++p) threads.emplace_back(pump, std::ref(server), p);
        for (auto& t : threads) t.join();
    }
    server.stop();
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(producers * k_requests_per_producer));
}
BENCHMARK(bm_serve_pipelined)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
