// The AES-NI hardware backend: FIPS-197 rounds as single instructions.
//
// One aesenc executes SubBytes + ShiftRows + MixColumns + AddRoundKey, so a
// block costs `rounds` instructions instead of the t-table's 40 dependent
// table lookups.  The instruction is pipelined (latency ~4 cycles,
// throughput 1/cycle on this repo's reference Xeon), so the bulk entry
// point keeps eight independent blocks in flight -- enough to cover the
// latency without spilling the 16-register XMM file.  Two gears share the
// code shape:
//
//   * sse   - target("aes,sse4.1"): 8 x __m128i per iteration.
//   * vaes  - target("vaes,avx2,aes"): 4 x __m256i per iteration, two
//             blocks per register via the VAES lane-parallel aesenc.  Same
//             eight blocks in flight, half the instructions.  Selected per
//             backend instance when CPUID reports vaes+avx2.
//
// The same two gears drive the unit-MAC kernel (aesni_positional_cmacs):
// AES-CMAC over equal whole-block ciphertexts and their position fields,
// with the CBC chains of 16 (vaes) or 8 (sse) units held in registers from
// the first block to the tag.  CBC is serial within a unit, so the chains
// of a group are what keeps the pipeline full.
//
// The byte layout needs no translation: FIPS-197 round keys and AES-NI both
// treat the 16 bytes as the column-major state, so round keys load straight
// from Aes_key_schedule::round_keys.
//
// Everything here is compiled with per-function target attributes (plus
// per-file -maes flags in CMake, belt and braces), so the TU builds and
// links under the baseline -march; runtime selection happens once in
// aesni_gear() via __builtin_cpu_supports.  SEDA_DISABLE_HW_CRYPTO
// compiles the whole file out, leaving the declining stubs at the bottom.
#include "crypto/aes_backend.h"

#if defined(__x86_64__) && !defined(SEDA_DISABLE_HW_CRYPTO)

#include <immintrin.h>

#include <array>
#include <optional>
#include <utility>

#include "common/error.h"
#include "crypto/mac.h"

namespace seda::crypto {
namespace {

/// CPUID once per process: whether AES-NI runs here, and whether its VAES
/// 2x128-lane gear does.  The bulk cipher and the unit-MAC kernel share it.
struct Aesni_gear {
    bool available = false;
    bool vaes = false;
};

const Aesni_gear& aesni_gear()
{
    static const Aesni_gear gear = [] {
        const bool aes = __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
        return Aesni_gear{aes, aes && __builtin_cpu_supports("vaes") &&
                                   __builtin_cpu_supports("avx2")};
    }();
    return gear;
}

[[gnu::target("aes,sse4.1")]] inline __m128i load_block(const u8* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

[[gnu::target("aes,sse4.1")]] inline void store_block(u8* p, __m128i x)
{
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x);
}

[[gnu::target("aes,sse4.1")]] void load_enc_keys(const Aes_key_schedule& ks, __m128i* rk)
{
    for (int r = 0; r <= ks.rounds; ++r)
        rk[r] = load_block(ks.round_keys[static_cast<std::size_t>(r)].data());
}

[[gnu::target("aes,sse4.1")]] inline __m128i encrypt_one(const __m128i* rk, int rounds,
                                                         __m128i x)
{
    x = _mm_xor_si128(x, rk[0]);
    for (int r = 1; r < rounds; ++r) x = _mm_aesenc_si128(x, rk[r]);
    return _mm_aesenclast_si128(x, rk[rounds]);
}

[[gnu::target("aes,sse4.1")]] void encrypt_blocks_sse(const Aes_key_schedule& ks,
                                                      std::span<Block16> blocks)
{
    __m128i rk[k_max_round_keys];
    load_enc_keys(ks, rk);
    const int rounds = ks.rounds;
    std::size_t i = 0;
    for (; i + 8 <= blocks.size(); i += 8) {
        __m128i x[8];
        for (int j = 0; j < 8; ++j)
            x[j] = _mm_xor_si128(load_block(blocks[i + static_cast<std::size_t>(j)].data()),
                                 rk[0]);
        for (int r = 1; r < rounds; ++r)
            for (int j = 0; j < 8; ++j) x[j] = _mm_aesenc_si128(x[j], rk[r]);
        for (int j = 0; j < 8; ++j)
            store_block(blocks[i + static_cast<std::size_t>(j)].data(),
                        _mm_aesenclast_si128(x[j], rk[rounds]));
    }
    for (; i < blocks.size(); ++i)
        store_block(blocks[i].data(), encrypt_one(rk, rounds, load_block(blocks[i].data())));
}

// ------------------------------------------------------------ VAES gear ----

[[gnu::target("vaes,avx2,aes")]] void load_enc_keys_wide(const Aes_key_schedule& ks,
                                                         __m256i* rk)
{
    for (int r = 0; r <= ks.rounds; ++r)
        rk[r] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(ks.round_keys[static_cast<std::size_t>(r)].data())));
}

[[gnu::target("vaes,avx2,aes")]] void encrypt_blocks_vaes(const Aes_key_schedule& ks,
                                                          std::span<Block16> blocks)
{
    __m256i rk[k_max_round_keys];
    load_enc_keys_wide(ks, rk);
    const int rounds = ks.rounds;
    std::size_t i = 0;
    for (; i + 8 <= blocks.size(); i += 8) {
        // Adjacent Block16s in the span are contiguous: each __m256i load
        // covers two blocks, four registers carry the 8-block wave.
        __m256i x[4];
        for (int j = 0; j < 4; ++j)
            x[j] = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                    blocks[i + static_cast<std::size_t>(2 * j)].data())),
                rk[0]);
        for (int r = 1; r < rounds; ++r)
            for (int j = 0; j < 4; ++j) x[j] = _mm256_aesenc_epi128(x[j], rk[r]);
        for (int j = 0; j < 4; ++j)
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(
                                    blocks[i + static_cast<std::size_t>(2 * j)].data()),
                                _mm256_aesenclast_epi128(x[j], rk[rounds]));
    }
    if (i < blocks.size()) encrypt_blocks_sse(ks, blocks.subspan(i));
}

// ------------------------------------------------- aeskeygenassist gear ----

/// One AES-128 expansion step: aeskeygenassist supplies RotWord+SubWord+Rcon
/// in its top word; the three shifted XORs fold the previous key's running
/// prefix sums (w[i] ^= w[i-1] per column).
[[gnu::target("aes,sse4.1")]] inline __m128i expand_step128(__m128i key, __m128i keygened)
{
    keygened = _mm_shuffle_epi32(keygened, 0xFF);
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    return _mm_xor_si128(key, keygened);
}

[[gnu::target("aes,sse4.1")]] void expand_key128_aesni(const u8* key, Block16* rk)
{
    __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
    store_block(rk[0].data(), k);
    // aeskeygenassist takes Rcon as an immediate, so the ten steps unroll.
#define SEDA_AES_EXPAND(i, rcon)                                   \
    k = expand_step128(k, _mm_aeskeygenassist_si128(k, (rcon)));   \
    store_block(rk[i].data(), k)
    SEDA_AES_EXPAND(1, 0x01);
    SEDA_AES_EXPAND(2, 0x02);
    SEDA_AES_EXPAND(3, 0x04);
    SEDA_AES_EXPAND(4, 0x08);
    SEDA_AES_EXPAND(5, 0x10);
    SEDA_AES_EXPAND(6, 0x20);
    SEDA_AES_EXPAND(7, 0x40);
    SEDA_AES_EXPAND(8, 0x80);
    SEDA_AES_EXPAND(9, 0x1B);
    SEDA_AES_EXPAND(10, 0x36);
#undef SEDA_AES_EXPAND
}

// ------------------------------------------------ positional CMAC gear ----
//
// The unit MAC (crypto/mac.h) of an m-block ciphertext is a CBC-MAC over
// m + 2 blocks: the ciphertext blocks, be64(pa) || be64(vn), and
// be32(layer) || be32(fmap) || be32(blk) || 80 00 00 00 folded with K2 (the
// 28 position bytes leave the final block padded).  The kernels load the
// ciphertext blocks straight from each unit and build both position blocks
// in registers, so nothing is staged.  tests/crypto/cmac_test.cpp holds
// them to the portable wave in crypto/mac.cpp on every count, unit size,
// key size and gear.

/// be64(pa) || be64(vn).
[[gnu::target("aes,sse4.1")]] inline __m128i position_block(const Mac_context& c)
{
    return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(c.vn)),
                          static_cast<long long>(__builtin_bswap64(c.pa)));
}

/// be32(layer) || be32(fmap) || be32(blk) || 80 00 00 00, before the K2 fold.
[[gnu::target("aes,sse4.1")]] inline __m128i final_block(const Mac_context& c)
{
    return _mm_set_epi32(0x80, static_cast<int>(__builtin_bswap32(c.blk_idx)),
                         static_cast<int>(__builtin_bswap32(c.fmap_idx)),
                         static_cast<int>(__builtin_bswap32(c.layer_id)));
}

/// The tag's first 8 bytes read big-endian: the stored 64-bit unit MAC.
[[gnu::target("aes,sse4.1")]] inline u64 truncate_tag(__m128i tag)
{
    return __builtin_bswap64(static_cast<u64>(_mm_cvtsi128_si64(tag)));
}

/// Round keys for the kernels, with K2 ^ rk[0] precombined for the final
/// block.  Passed by reference so no vector crosses a call by value.
struct Sse_cmac_keys {
    __m128i rk[k_max_round_keys];
    __m128i k2_rk0;
    int rounds;
};

struct Vaes_cmac_keys {
    __m256i rk[k_max_round_keys];
    __m256i k2_rk0;
    int rounds;
};

template <int N>
[[gnu::target("aes,sse4.1")]] inline void encrypt_chains(__m128i (&x)[N],
                                                         const Sse_cmac_keys& k)
{
    for (int r = 1; r < k.rounds; ++r)
        for (int j = 0; j < N; ++j) x[j] = _mm_aesenc_si128(x[j], k.rk[r]);
    for (int j = 0; j < N; ++j) x[j] = _mm_aesenclast_si128(x[j], k.rk[k.rounds]);
}

/// out[j] = the unit MAC of units[j] for j < N, one chain per xmm register.
template <int N>
[[gnu::target("aes,sse4.1")]] void cmac_group_sse(const Sse_cmac_keys& k,
                                                  const Mac_request* units, std::size_t blocks,
                                                  u64* out)
{
    __m128i x[N];
    for (int j = 0; j < N; ++j) x[j] = _mm_setzero_si128();
    for (std::size_t b = 0; b < blocks; ++b) {
        for (int j = 0; j < N; ++j)
            x[j] = _mm_xor_si128(
                x[j], _mm_xor_si128(load_block(units[j].ciphertext.data() + 16 * b), k.rk[0]));
        encrypt_chains(x, k);
    }
    for (int j = 0; j < N; ++j)
        x[j] = _mm_xor_si128(x[j], _mm_xor_si128(position_block(units[j].ctx), k.rk[0]));
    encrypt_chains(x, k);
    for (int j = 0; j < N; ++j)
        x[j] = _mm_xor_si128(x[j], _mm_xor_si128(final_block(units[j].ctx), k.k2_rk0));
    encrypt_chains(x, k);
    for (int j = 0; j < N; ++j) out[j] = truncate_tag(x[j]);
}

template <int N>
[[gnu::target("vaes,avx2,aes")]] inline void encrypt_chains(__m256i (&x)[N],
                                                            const Vaes_cmac_keys& k)
{
    for (int r = 1; r < k.rounds; ++r)
        for (int j = 0; j < N; ++j) x[j] = _mm256_aesenc_epi128(x[j], k.rk[r]);
    for (int j = 0; j < N; ++j) x[j] = _mm256_aesenclast_epi128(x[j], k.rk[k.rounds]);
}

/// out[i] = the unit MAC of units[i] for i < count (2N-1 or 2N), two
/// chains per ymm register: units 2j and 2j+1 in register j's low and high
/// lanes.  An odd count runs its last unit in both lanes of the last
/// register and keeps one tag.
template <int N>
[[gnu::target("vaes,avx2,aes")]] void cmac_group_vaes(const Vaes_cmac_keys& k,
                                                      const Mac_request* units, std::size_t count,
                                                      std::size_t blocks, u64* out)
{
    const Mac_request* hi[N];
    for (int j = 0; j < N; ++j)
        hi[j] = &units[std::min<std::size_t>(2 * static_cast<std::size_t>(j) + 1, count - 1)];
    __m256i x[N];
    for (int j = 0; j < N; ++j) x[j] = _mm256_setzero_si256();
    for (std::size_t b = 0; b < blocks; ++b) {
        for (int j = 0; j < N; ++j) {
            const __m256i m = _mm256_set_m128i(load_block(hi[j]->ciphertext.data() + 16 * b),
                                               load_block(units[2 * j].ciphertext.data() + 16 * b));
            x[j] = _mm256_xor_si256(x[j], _mm256_xor_si256(m, k.rk[0]));
        }
        encrypt_chains(x, k);
    }
    for (int j = 0; j < N; ++j) {
        const __m256i m =
            _mm256_set_m128i(position_block(hi[j]->ctx), position_block(units[2 * j].ctx));
        x[j] = _mm256_xor_si256(x[j], _mm256_xor_si256(m, k.rk[0]));
    }
    encrypt_chains(x, k);
    for (int j = 0; j < N; ++j) {
        const __m256i m = _mm256_set_m128i(final_block(hi[j]->ctx), final_block(units[2 * j].ctx));
        x[j] = _mm256_xor_si256(x[j], _mm256_xor_si256(m, k.k2_rk0));
    }
    encrypt_chains(x, k);
    for (int j = 0; j < N; ++j) {
        const std::size_t i = 2 * static_cast<std::size_t>(j);
        out[i] = truncate_tag(_mm256_castsi256_si128(x[j]));
        if (i + 1 < count) out[i + 1] = truncate_tag(_mm256_extracti128_si256(x[j], 1));
    }
}

/// Group kernels for 1..8 registers, indexed by registers - 1: full groups
/// take the last, and a batch's remainder the smallest that holds it.
using Sse_group = void (*)(const Sse_cmac_keys&, const Mac_request*, std::size_t, u64*);
using Vaes_group = void (*)(const Vaes_cmac_keys&, const Mac_request*, std::size_t,
                            std::size_t, u64*);

template <std::size_t... I>
constexpr std::array<Sse_group, sizeof...(I)> sse_groups(std::index_sequence<I...>)
{
    return {&cmac_group_sse<static_cast<int>(I) + 1>...};
}

template <std::size_t... I>
constexpr std::array<Vaes_group, sizeof...(I)> vaes_groups(std::index_sequence<I...>)
{
    return {&cmac_group_vaes<static_cast<int>(I) + 1>...};
}

/// Chain registers per group: with the round keys read from memory, 8 fill
/// the pipeline without spilling the 16-register xmm/ymm file.
constexpr int k_chain_registers = 8;
constexpr auto k_sse_groups = sse_groups(std::make_index_sequence<k_chain_registers>{});
constexpr auto k_vaes_groups = vaes_groups(std::make_index_sequence<k_chain_registers>{});

[[gnu::target("aes,sse4.1")]] void positional_cmacs_sse(const Aes_key_schedule& ks,
                                                        const Block16& k2,
                                                        std::span<const Mac_request> reqs,
                                                        std::size_t blocks, std::span<u64> out)
{
    Sse_cmac_keys k;
    load_enc_keys(ks, k.rk);
    k.rounds = ks.rounds;
    k.k2_rk0 = _mm_xor_si128(load_block(k2.data()), k.rk[0]);
    for (std::size_t i = 0; i < reqs.size(); i += k_chain_registers) {
        const std::size_t count = std::min<std::size_t>(k_chain_registers, reqs.size() - i);
        k_sse_groups[count - 1](k, &reqs[i], blocks, &out[i]);
    }
}

[[gnu::target("vaes,avx2,aes")]] void positional_cmacs_vaes(const Aes_key_schedule& ks,
                                                           const Block16& k2,
                                                           std::span<const Mac_request> reqs,
                                                           std::size_t blocks,
                                                           std::span<u64> out)
{
    constexpr std::size_t group = 2 * k_chain_registers;
    Vaes_cmac_keys k;
    load_enc_keys_wide(ks, k.rk);
    k.rounds = ks.rounds;
    k.k2_rk0 = _mm256_xor_si256(_mm256_broadcastsi128_si256(load_block(k2.data())), k.rk[0]);
    for (std::size_t i = 0; i < reqs.size(); i += group) {
        const std::size_t count = std::min(group, reqs.size() - i);
        k_vaes_groups[(count + 1) / 2 - 1](k, &reqs[i], count, blocks, &out[i]);
    }
}

/// The block count every ciphertext in `reqs` shares, if they share one.
std::optional<std::size_t> whole_blocks(std::span<const Mac_request> reqs)
{
    const std::size_t bytes = reqs.empty() ? 0 : reqs.front().ciphertext.size();
    if (bytes % k_aes_block_bytes != 0) return std::nullopt;
    for (const Mac_request& r : reqs)
        if (r.ciphertext.size() != bytes) return std::nullopt;
    return bytes / k_aes_block_bytes;
}

bool positional_cmacs(bool vaes, const Aes_key_schedule& ks, const Block16& k2,
                      std::span<const Mac_request> reqs, std::span<u64> out)
{
    require(reqs.size() == out.size(), "aesni_positional_cmacs: size mismatch");
    const std::optional<std::size_t> blocks = whole_blocks(reqs);
    if (!aesni_gear().available || !blocks) return false;
    if (vaes)
        positional_cmacs_vaes(ks, k2, reqs, *blocks, out);
    else
        positional_cmacs_sse(ks, k2, reqs, *blocks, out);
    return true;
}

class Aesni_backend final : public Aes_backend {
public:
    explicit Aesni_backend(bool vaes) : vaes_(vaes) {}

    [[nodiscard]] std::string_view name() const override { return "aesni"; }

    void encrypt_blocks(const Aes_key_schedule& ks, std::span<Block16> blocks) const override
    {
        if (vaes_)
            encrypt_blocks_vaes(ks, blocks);
        else
            encrypt_blocks_sse(ks, blocks);
    }

private:
    bool vaes_;
};

}  // namespace

const Aes_backend* aesni_backend()
{
    static const Aesni_backend backend(aesni_gear().vaes);
    return aesni_gear().available ? &backend : nullptr;
}

bool aesni_expand_round_keys128(std::span<const u8> key, Round_key_bank& out)
{
    if (key.size() != 16 || !aesni_gear().available) return false;
    expand_key128_aesni(key.data(), out.data());
    return true;
}

bool aesni_positional_cmacs(const Aes_key_schedule& ks, const Block16& k2,
                            std::span<const Mac_request> reqs, std::span<u64> out)
{
    return positional_cmacs(aesni_gear().vaes, ks, k2, reqs, out);
}

bool aesni_positional_cmacs_sse(const Aes_key_schedule& ks, const Block16& k2,
                                std::span<const Mac_request> reqs, std::span<u64> out)
{
    return positional_cmacs(false, ks, k2, reqs, out);
}

}  // namespace seda::crypto

#else  // non-x86 build or SEDA_DISABLE_HW_CRYPTO: the backend compiles out.

namespace seda::crypto {

const Aes_backend* aesni_backend() { return nullptr; }

bool aesni_expand_round_keys128(std::span<const u8> /*key*/, Round_key_bank& /*out*/)
{
    return false;
}

bool aesni_positional_cmacs(const Aes_key_schedule& /*ks*/, const Block16& /*k2*/,
                            std::span<const Mac_request> /*reqs*/, std::span<u64> /*out*/)
{
    return false;
}

bool aesni_positional_cmacs_sse(const Aes_key_schedule& /*ks*/, const Block16& /*k2*/,
                                std::span<const Mac_request> /*reqs*/, std::span<u64> /*out*/)
{
    return false;
}

}  // namespace seda::crypto

#endif
