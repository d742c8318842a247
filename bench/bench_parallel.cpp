// Parallel-runtime scaling benches (google-benchmark): how the concurrent
// suite driver and the sharded Secure_session scale with worker count.
//
//   bm_suite_parallel/J        the Fig. 5/6 cell matrix (5 schemes x 3
//                              representative models, edge NPU) on J workers
//   bm_session_write/J         one 1 MiB tile (16384 x 64 B units) written
//                              through a J-worker Secure_session
//   bm_session_read/J          the same tile verified + decrypted back
//   bm_session_shared_pool     infer_session's shape: two caller threads,
//                              each with its own Secure_session over one
//                              shared 2-worker pool, alternating write and
//                              read batches of 2,887 units (the mean sink
//                              call of a resnet18 inference)
//
// Compare J=1 against J=hardware for the runtime win; J=1 against the
// serial bm_secure_memory_* in bench_crypto_micro for the sharding overhead
// at a single worker (one extra staging pass; it should be small).
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "runtime/parallel_suite.h"
#include "runtime/secure_session.h"

using namespace seda;

namespace {

constexpr std::string_view k_models[] = {"let", "mob", "ncf"};
constexpr Bytes k_unit_bytes = 64;
constexpr std::size_t k_tile_units = 16384;  // 1 MiB tile

std::vector<u8> make_key(u64 seed)
{
    std::vector<u8> key(16);
    Rng rng(seed);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

std::vector<std::vector<u8>> make_tile()
{
    Rng rng(77);
    std::vector<std::vector<u8>> tile(k_tile_units);
    for (auto& unit : tile) {
        unit.resize(k_unit_bytes);
        for (auto& b : unit) b = rng.next_byte();
    }
    return tile;
}

void bm_suite_parallel(benchmark::State& state)
{
    const auto npu = accel::Npu_config::edge();
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto result =
            runtime::run_suite_parallel(npu, core::paper_schemes(), jobs, k_models);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(bm_suite_parallel)
    ->DenseRange(1, 2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_session_write(benchmark::State& state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    runtime::Secure_session session(make_key(1), make_key(2), {}, workers);
    const auto tile = make_tile();
    std::vector<core::Secure_memory::Unit_write> batch;
    for (std::size_t i = 0; i < tile.size(); ++i)
        batch.push_back({i * k_unit_bytes, tile[i], 1, 0, static_cast<u32>(i)});

    for (auto _ : state) session.write_units(batch);
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(k_tile_units * k_unit_bytes));
}
BENCHMARK(bm_session_write)->DenseRange(1, 2)->Arg(4)->Arg(8)->UseRealTime();

void bm_session_read(benchmark::State& state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    runtime::Secure_session session(make_key(1), make_key(2), {}, workers);
    const auto tile = make_tile();
    std::vector<core::Secure_memory::Unit_write> writes;
    for (std::size_t i = 0; i < tile.size(); ++i)
        writes.push_back({i * k_unit_bytes, tile[i], 1, 0, static_cast<u32>(i)});
    session.write_units(writes);

    auto out = make_tile();
    std::vector<core::Secure_memory::Unit_read> reads;
    for (std::size_t i = 0; i < out.size(); ++i)
        reads.push_back({i * k_unit_bytes, out[i], 1, 0, static_cast<u32>(i)});

    for (auto _ : state) {
        auto statuses = session.read_units(reads);
        benchmark::DoNotOptimize(statuses);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(k_tile_units * k_unit_bytes));
}
BENCHMARK(bm_session_read)->DenseRange(1, 2)->Arg(4)->Arg(8)->UseRealTime();

void bm_session_shared_pool(benchmark::State& state)
{
    constexpr std::size_t k_batch_units = 2887;
    // One pool for both benchmark threads, as infer_session shares one
    // between its two tenants.
    static runtime::Thread_pool pool(2);
    const auto caller = static_cast<u64>(state.thread_index());
    runtime::Secure_session session(make_key(1 + 2 * caller), make_key(2 + 2 * caller), {},
                                    pool);
    auto tile = make_tile();
    tile.resize(k_batch_units);
    std::vector<core::Secure_memory::Unit_write> writes;
    for (std::size_t i = 0; i < tile.size(); ++i)
        writes.push_back({i * k_unit_bytes, tile[i], 1, 0, static_cast<u32>(i)});
    session.write_units(writes);

    auto out = tile;
    std::vector<core::Secure_memory::Unit_read> reads;
    for (std::size_t i = 0; i < out.size(); ++i)
        reads.push_back({i * k_unit_bytes, out[i], 1, 0, static_cast<u32>(i)});

    for (auto _ : state) {
        session.write_units(writes);
        auto statuses = session.read_units(reads);
        benchmark::DoNotOptimize(statuses);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(2 * k_batch_units * k_unit_bytes));
}
BENCHMARK(bm_session_shared_pool)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
