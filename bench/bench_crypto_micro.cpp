// Crypto micro-benchmarks (google-benchmark): throughput of the functional
// crypto substrate and a head-to-head of the three encryption disciplines
// the paper contrasts (standard CTR, shared-OTP, B-AES), plus the SECA
// attack itself.
//
// Backend coverage: every AES bench -- the unit MACs included, since they
// are AES-CMAC -- runs once per AES backend, and the SHA-256 bench (the KDF's
// hash) once per SHA-256 backend, so the round-implementation share is
// measured, not asserted.  bm_aes128_encrypt_blocks is the bulk cipher call
// behind Baes_engine::otps_many and the software backends' CMAC waves; it is
// the roofline the aesni unit-MAC gear is held against.  The hardware kinds
// (aesni, shani) are registered at runtime only when this host's CPUID has
// the features -- a static BENCHMARK() would silently measure the software
// fallback under a hardware label on older CPUs -- which is why this file
// has its own main() instead of BENCHMARK_MAIN().
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/secure_memory.h"
#include "crypto/aes.h"
#include "crypto/aes_backend.h"
#include "crypto/attacks.h"
#include "crypto/baes.h"
#include "crypto/ctr.h"
#include "crypto/mac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

using namespace seda;
using namespace seda::crypto;

namespace {

std::vector<u8> make_key()
{
    std::vector<u8> key(16);
    Rng rng(42);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

std::vector<u8> make_data(std::size_t n)
{
    std::vector<u8> data(n);
    Rng rng(7);
    for (auto& b : data) b = rng.next_byte();
    return data;
}

// --- AES backends head-to-head ----------------------------------------------

template <Aes_backend_kind K>
void bm_aes128_block(benchmark::State& state)
{
    const Aes aes(make_key(), K);
    Block16 blk{};
    for (auto _ : state) {
        blk = aes.encrypt_block(blk);
        benchmark::DoNotOptimize(blk);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 16);
}
BENCHMARK(bm_aes128_block<Aes_backend_kind::scalar>);
BENCHMARK(bm_aes128_block<Aes_backend_kind::ttable>);

template <Aes_backend_kind K>
void bm_aes128_encrypt_blocks(benchmark::State& state)
{
    const Aes aes(make_key(), K);
    std::vector<Block16> blocks(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        aes.encrypt_blocks(blocks);
        benchmark::DoNotOptimize(blocks.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0) * 16);
}
BENCHMARK(bm_aes128_encrypt_blocks<Aes_backend_kind::scalar>)->Arg(32);
BENCHMARK(bm_aes128_encrypt_blocks<Aes_backend_kind::ttable>)->Arg(32);

template <Sha256_backend_kind K>
void bm_sha256_64b(benchmark::State& state)
{
    const auto data = make_data(64);
    for (auto _ : state) {
        Sha256 h(K);
        h.update(data);
        auto d = h.finish();
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 64);
}
BENCHMARK(bm_sha256_64b<Sha256_backend_kind::scalar>);
BENCHMARK(bm_sha256_64b<Sha256_backend_kind::fast>);

void bm_positional_block_mac(benchmark::State& state)
{
    // One-shot MAC: key schedule and subkeys per call.
    const auto key = make_key();
    const auto data = make_data(static_cast<std::size_t>(state.range(0)));
    Mac_context ctx{0x1000, 1, 3, 0, 7};
    for (auto _ : state) {
        auto m = positional_block_mac(key, data, ctx);
        benchmark::DoNotOptimize(m);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_positional_block_mac)->Arg(64)->Arg(512)->Arg(4096);

void bm_cmac_engine_mac(benchmark::State& state)
{
    // Precomputed-key engine, one unit per call: a lone CBC chain.
    const auto key = make_key();
    const Cmac_engine engine(key);
    const auto data = make_data(static_cast<std::size_t>(state.range(0)));
    Mac_context ctx{0x1000, 1, 3, 0, 7};
    for (auto _ : state) {
        auto m = engine.positional_mac(data, ctx);
        benchmark::DoNotOptimize(m);
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_cmac_engine_mac)->Arg(64)->Arg(512)->Arg(4096);

// --- bulk unit MACs: one call through positional_macs -----------------------
//
// The MAC half of a secure-memory transfer: `units` independent unit MACs of
// `unit_bytes` each under one engine.  The aesni backend takes the fused
// gear (the CBC chains of 16 units held in registers across the whole
// message); scalar and ttable advance the chains in lock-step waves, one
// bulk AES call per block position.  Args are {unit_bytes, units}: 64 B is
// the datapath's unit, 128-4096 B the optBlk sizes of Table I, and the
// 1/4/16-unit calls at 64 B cover serve flushes (3.4-5.5 units each), where
// a group of chain registers runs partly empty.

template <Aes_backend_kind K>
void bm_unit_macs_bulk(benchmark::State& state)
{
    const std::size_t unit_bytes = static_cast<std::size_t>(state.range(0));
    const std::size_t units = static_cast<std::size_t>(state.range(1));
    const Cmac_engine engine(make_key(), K);
    const auto data = make_data(unit_bytes * units);
    std::vector<Mac_request> reqs;
    for (std::size_t i = 0; i < units; ++i)
        reqs.push_back({std::span<const u8>(data).subspan(unit_bytes * i, unit_bytes),
                        {0x1000 + unit_bytes * i, 1, 3, 0, static_cast<u32>(i)}});
    std::vector<u64> macs(units);
    for (auto _ : state) {
        engine.positional_macs(reqs, macs);
        benchmark::DoNotOptimize(macs.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(unit_bytes * units));
}
void unit_mac_shapes(benchmark::internal::Benchmark* b)
{
    for (const i64 units : {1, 4, 16}) b->Args({64, units});
    for (const i64 bytes : {64, 128, 256, 512, 1024, 4096}) b->Args({bytes, 64});
}
BENCHMARK(bm_unit_macs_bulk<Aes_backend_kind::scalar>)->Apply(unit_mac_shapes);
BENCHMARK(bm_unit_macs_bulk<Aes_backend_kind::ttable>)->Apply(unit_mac_shapes);

// --- CTR disciplines, per backend --------------------------------------------
//
// One protected unit, three encryption disciplines.  The work per unit is
// what differs: standard CTR runs one AES invocation per 16 B segment,
// B-AES runs one AES invocation total plus XORs -- the software analogue of
// the paper's N-engines-vs-XOR-lanes hardware trade (Fig. 4).

template <Aes_backend_kind K>
void bm_ctr_standard(benchmark::State& state)
{
    const Aes_ctr ctr(make_key(), K);
    auto data = make_data(static_cast<std::size_t>(state.range(0)));
    u64 vn = 0;
    for (auto _ : state) {
        ctr.crypt_standard(data, 0x4000, ++vn);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_ctr_standard<Aes_backend_kind::scalar>)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(bm_ctr_standard<Aes_backend_kind::ttable>)->Arg(64)->Arg(512)->Arg(4096);

template <Aes_backend_kind K>
void bm_baes_crypt(benchmark::State& state)
{
    const Baes_engine baes(make_key(), K);
    auto data = make_data(static_cast<std::size_t>(state.range(0)));
    u64 vn = 0;
    for (auto _ : state) {
        baes.crypt(data, 0x4000, ++vn);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_baes_crypt<Aes_backend_kind::scalar>)->Arg(64)->Arg(256)->Arg(512);
BENCHMARK(bm_baes_crypt<Aes_backend_kind::ttable>)->Arg(64)->Arg(256)->Arg(512);

void bm_baes_otp_fanout(benchmark::State& state)
{
    const Baes_engine baes(make_key());
    u64 vn = 0;
    for (auto _ : state) {
        auto pads = baes.otps(0x8000, ++vn, static_cast<std::size_t>(state.range(0)));
        benchmark::DoNotOptimize(pads.data());
    }
}
BENCHMARK(bm_baes_otp_fanout)->Arg(4)->Arg(8)->Arg(32);

// --- secure memory: single-unit calls vs one batch per tile ------------------

void bm_secure_memory_tile(benchmark::State& state)
{
    const bool batched = state.range(0) != 0;
    constexpr std::size_t k_units = 64;  // one 4 KB tile of 64 B units
    const auto key = make_key();
    seda::core::Secure_memory mem(key, key);

    const auto data = make_data(64);
    std::vector<std::vector<u8>> out(k_units, std::vector<u8>(64));
    std::vector<seda::core::Secure_memory::Unit_write> writes;
    std::vector<seda::core::Secure_memory::Unit_read> reads;
    for (std::size_t i = 0; i < k_units; ++i) {
        writes.push_back({i * 64, data, 0, 0, static_cast<u32>(i)});
        reads.push_back({i * 64, out[i], 0, 0, static_cast<u32>(i)});
    }

    for (auto _ : state) {
        if (batched) {
            mem.write_units(writes);
            auto statuses = mem.read_units(reads);
            benchmark::DoNotOptimize(statuses.data());
        } else {
            for (const auto& w : writes)
                mem.write(w.addr, w.plaintext, w.layer_id, w.fmap_idx, w.blk_idx);
            for (const auto& r : reads) {
                auto s = mem.read(r.addr, r.out, r.layer_id, r.fmap_idx, r.blk_idx);
                benchmark::DoNotOptimize(s);
            }
        }
    }
    // Bytes moved per iteration: one tile written + one tile read back.
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(2 * k_units * 64));
}
BENCHMARK(bm_secure_memory_tile)->Arg(0)->Arg(1)->ArgNames({"batched"});

void bm_seca_attack(benchmark::State& state)
{
    Rng rng(11);
    const auto plain = make_sparse_plaintext(4096, 0.6, rng);
    const Aes_ctr ctr(make_key());
    auto cipher = plain;
    ctr.crypt_shared_otp(cipher, 0xA000, 5);
    const Block16 zero{};
    for (auto _ : state) {
        auto r = seca_attack(cipher, zero, plain);
        benchmark::DoNotOptimize(r.recovered);
    }
}
BENCHMARK(bm_seca_attack);

void bm_xor_mac_fold(benchmark::State& state)
{
    Rng rng(3);
    std::vector<u64> macs(static_cast<std::size_t>(state.range(0)));
    for (auto& m : macs) m = rng.next_u64();
    for (auto _ : state) {
        auto v = xor_fold(macs);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(bm_xor_mac_fold)->Arg(1024)->Arg(65536);

}  // namespace

int main(int argc, char** argv)
{
    // Hardware-backend series, present only when this host can run them.
    if (backend_available(Aes_backend_kind::aesni)) {
        constexpr auto k = Aes_backend_kind::aesni;
        benchmark::RegisterBenchmark("bm_aes128_block<Aes_backend_kind::aesni>",
                                     bm_aes128_block<k>);
        benchmark::RegisterBenchmark("bm_aes128_encrypt_blocks<Aes_backend_kind::aesni>",
                                     bm_aes128_encrypt_blocks<k>)
            ->Arg(32);
        benchmark::RegisterBenchmark("bm_ctr_standard<Aes_backend_kind::aesni>",
                                     bm_ctr_standard<k>)
            ->Arg(64)
            ->Arg(512)
            ->Arg(4096);
        benchmark::RegisterBenchmark("bm_baes_crypt<Aes_backend_kind::aesni>",
                                     bm_baes_crypt<k>)
            ->Arg(64)
            ->Arg(256)
            ->Arg(512);
        benchmark::RegisterBenchmark("bm_unit_macs_bulk<Aes_backend_kind::aesni>",
                                     bm_unit_macs_bulk<k>)
            ->Apply(unit_mac_shapes);
    }
    if (sha256_backend_available(Sha256_backend_kind::shani))
        benchmark::RegisterBenchmark("bm_sha256_64b<Sha256_backend_kind::shani>",
                                     bm_sha256_64b<Sha256_backend_kind::shani>);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
