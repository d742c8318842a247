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
// The byte layout needs no translation: FIPS-197 round keys and AES-NI both
// treat the 16 bytes as the column-major state, so round keys load straight
// from Aes_key_schedule::round_keys.
//
// Everything here is compiled with per-function target attributes (plus
// per-file -maes flags in CMake, belt and braces), so the TU builds and
// links under the baseline -march; runtime selection happens once in
// aesni_backend() via __builtin_cpu_supports.  SEDA_DISABLE_HW_CRYPTO
// compiles the whole backend out, leaving the nullptr stubs at the bottom.
#include "crypto/aes_backend.h"

#if defined(__x86_64__) && !defined(SEDA_DISABLE_HW_CRYPTO)

#include <immintrin.h>

namespace seda::crypto {
namespace {

/// rounds+1 round keys, AES-256's 15 at most.
constexpr int k_max_round_keys = 15;

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
    // CPUID once per process; the singleton's VAES gear choice rides along.
    static const bool available =
        __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
    static const Aesni_backend backend(__builtin_cpu_supports("vaes") &&
                                       __builtin_cpu_supports("avx2"));
    return available ? &backend : nullptr;
}

bool aesni_expand_round_keys128(std::span<const u8> key, std::vector<Block16>& out)
{
    if (key.size() != 16 || aesni_backend() == nullptr) return false;
    out.resize(11);
    expand_key128_aesni(key.data(), out.data());
    return true;
}

}  // namespace seda::crypto

#else  // non-x86 build or SEDA_DISABLE_HW_CRYPTO: the backend compiles out.

namespace seda::crypto {

const Aes_backend* aesni_backend() { return nullptr; }

bool aesni_expand_round_keys128(std::span<const u8> /*key*/, std::vector<Block16>& /*out*/)
{
    return false;
}

}  // namespace seda::crypto

#endif
