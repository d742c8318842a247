#include "crypto/aes_backend.h"

#include <string_view>
#include <utility>

#include "common/bitutil.h"
#include "common/envutil.h"

namespace seda::crypto {
namespace {

constexpr auto k_sbox = make_aes_sbox();

// Compile-time sanity anchors from FIPS-197 (full vectors are in the tests).
static_assert(make_aes_sbox()[0x00] == 0x63);
static_assert(make_aes_sbox()[0x53] == 0xED);

// ------------------------------------------------------- scalar backend ----

void sub_bytes(Block16& s)
{
    for (auto& b : s) b = k_sbox[b];
}

// State is column-major per FIPS-197: byte index = row + 4*column.
void shift_rows(Block16& s)
{
    Block16 t = s;
    for (int r = 1; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            s[static_cast<std::size_t>(r + 4 * c)] =
                t[static_cast<std::size_t>(r + 4 * ((c + r) % 4))];
}

void mix_columns(Block16& s)
{
    for (int c = 0; c < 4; ++c) {
        const std::size_t o = static_cast<std::size_t>(4 * c);
        const u8 a0 = s[o], a1 = s[o + 1], a2 = s[o + 2], a3 = s[o + 3];
        s[o] = static_cast<u8>(gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3);
        s[o + 1] = static_cast<u8>(a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3);
        s[o + 2] = static_cast<u8>(a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3));
        s[o + 3] = static_cast<u8>(gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2));
    }
}

void add_round_key(Block16& s, const Block16& rk)
{
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<u8>(s[i] ^ rk[i]);
}

class Scalar_backend final : public Aes_backend {
public:
    [[nodiscard]] std::string_view name() const override { return "scalar"; }

    void encrypt_blocks(const Aes_key_schedule& ks, std::span<Block16> blocks) const override
    {
        for (Block16& s : blocks) {
            add_round_key(s, ks.round_keys[0]);
            for (int r = 1; r < ks.rounds; ++r) {
                sub_bytes(s);
                shift_rows(s);
                mix_columns(s);
                add_round_key(s, ks.round_keys[static_cast<std::size_t>(r)]);
            }
            sub_bytes(s);
            shift_rows(s);
            add_round_key(s, ks.round_keys[static_cast<std::size_t>(ks.rounds)]);
        }
    }
};

// ------------------------------------------------------- t-table backend ---
//
// Te0[x] packs the MixColumns column of S[x] big-endian: (2S, S, S, 3S); the
// other tables are byte rotations so each state byte indexes the table for
// its row.

struct Aes_tables {
    std::array<u32, 256> te0{}, te1{}, te2{}, te3{};
};

constexpr Aes_tables make_tables()
{
    Aes_tables t;
    for (int i = 0; i < 256; ++i) {
        const auto x = static_cast<std::size_t>(i);
        const u8 s = k_sbox[x];
        const u32 te = (static_cast<u32>(gf_mul(s, 2)) << 24) | (static_cast<u32>(s) << 16) |
                       (static_cast<u32>(s) << 8) | gf_mul(s, 3);
        t.te0[x] = te;
        t.te1[x] = rotr32(te, 8);
        t.te2[x] = rotr32(te, 16);
        t.te3[x] = rotr32(te, 24);
    }
    return t;
}

constexpr Aes_tables k_t = make_tables();

class Ttable_backend final : public Aes_backend {
public:
    [[nodiscard]] std::string_view name() const override { return "ttable"; }

    void encrypt_blocks(const Aes_key_schedule& ks, std::span<Block16> blocks) const override
    {
        // Round count fixed at the top so every lane body fully unrolls.
        switch (ks.rounds) {
            case 10: encrypt_blocks_r<10>(ks, blocks); break;
            case 12: encrypt_blocks_r<12>(ks, blocks); break;
            default: encrypt_blocks_r<14>(ks, blocks); break;
        }
    }

private:
    /// Blocks interleaved per inner iteration.  Each block's rounds form one
    /// serial table-lookup chain, so a single stream is latency-bound; two
    /// lanes (8 state words + temps) hide most of the L1 latency while
    /// staying inside the x86-64 GP register budget -- 4 lanes measurably
    /// spills on the 1-core Xeon this repo benches on.
    static constexpr std::size_t k_lanes = 2;

    template <int R>
    static void encrypt_blocks_r(const Aes_key_schedule& ks, std::span<Block16> blocks)
    {
        std::size_t i = 0;
        for (; i + k_lanes <= blocks.size(); i += k_lanes)
            encrypt_lane<k_lanes, R>(ks, &blocks[i]);
        for (; i < blocks.size(); ++i) encrypt_lane<1, R>(ks, &blocks[i]);
    }

    template <std::size_t N, int R>
    static void encrypt_lane(const Aes_key_schedule& ks, Block16* blks)
    {
        const u32* rk = ks.enc_words.data();
        u32 s0[N], s1[N], s2[N], s3[N];
        for (std::size_t j = 0; j < N; ++j) {
            s0[j] = load_be32(blks[j].data()) ^ rk[0];
            s1[j] = load_be32(blks[j].data() + 4) ^ rk[1];
            s2[j] = load_be32(blks[j].data() + 8) ^ rk[2];
            s3[j] = load_be32(blks[j].data() + 12) ^ rk[3];
        }
        const u32* k = rk + 4;
        for (int r = 1; r < R; ++r, k += 4) {
            for (std::size_t j = 0; j < N; ++j) {
                const u32 t0 = k_t.te0[s0[j] >> 24] ^ k_t.te1[(s1[j] >> 16) & 0xFF] ^
                               k_t.te2[(s2[j] >> 8) & 0xFF] ^ k_t.te3[s3[j] & 0xFF] ^ k[0];
                const u32 t1 = k_t.te0[s1[j] >> 24] ^ k_t.te1[(s2[j] >> 16) & 0xFF] ^
                               k_t.te2[(s3[j] >> 8) & 0xFF] ^ k_t.te3[s0[j] & 0xFF] ^ k[1];
                const u32 t2 = k_t.te0[s2[j] >> 24] ^ k_t.te1[(s3[j] >> 16) & 0xFF] ^
                               k_t.te2[(s0[j] >> 8) & 0xFF] ^ k_t.te3[s1[j] & 0xFF] ^ k[2];
                const u32 t3 = k_t.te0[s3[j] >> 24] ^ k_t.te1[(s0[j] >> 16) & 0xFF] ^
                               k_t.te2[(s1[j] >> 8) & 0xFF] ^ k_t.te3[s2[j] & 0xFF] ^ k[3];
                s0[j] = t0;
                s1[j] = t1;
                s2[j] = t2;
                s3[j] = t3;
            }
        }

        // Final round: SubBytes + ShiftRows only.
        for (std::size_t j = 0; j < N; ++j) {
            const u32 t0 = sub_word(s0[j] >> 24, (s1[j] >> 16) & 0xFF,
                                    (s2[j] >> 8) & 0xFF, s3[j] & 0xFF) ^ k[0];
            const u32 t1 = sub_word(s1[j] >> 24, (s2[j] >> 16) & 0xFF,
                                    (s3[j] >> 8) & 0xFF, s0[j] & 0xFF) ^ k[1];
            const u32 t2 = sub_word(s2[j] >> 24, (s3[j] >> 16) & 0xFF,
                                    (s0[j] >> 8) & 0xFF, s1[j] & 0xFF) ^ k[2];
            const u32 t3 = sub_word(s3[j] >> 24, (s0[j] >> 16) & 0xFF,
                                    (s1[j] >> 8) & 0xFF, s2[j] & 0xFF) ^ k[3];
            store_be32(blks[j].data(), t0);
            store_be32(blks[j].data() + 4, t1);
            store_be32(blks[j].data() + 8, t2);
            store_be32(blks[j].data() + 12, t3);
        }
    }

    static u32 sub_word(u32 b0, u32 b1, u32 b2, u32 b3)
    {
        return (static_cast<u32>(k_sbox[b0]) << 24) | (static_cast<u32>(k_sbox[b1]) << 16) |
               (static_cast<u32>(k_sbox[b2]) << 8) | k_sbox[b3];
    }
};

const Scalar_backend k_scalar_backend;
const Ttable_backend k_ttable_backend;

}  // namespace

const Aes_backend& scalar_backend() { return k_scalar_backend; }
const Aes_backend& ttable_backend() { return k_ttable_backend; }

Cpu_crypto_features cpu_crypto_features()
{
    Cpu_crypto_features f;
#if defined(__x86_64__)
    f.aes = __builtin_cpu_supports("aes") != 0;
    f.vaes = __builtin_cpu_supports("vaes") != 0;
    f.sha_ni = __builtin_cpu_supports("sha") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    return f;
}

bool backend_available(Aes_backend_kind kind)
{
    return kind != Aes_backend_kind::aesni || aesni_backend() != nullptr;
}

Aes_backend_kind default_backend_kind()
{
    // Best available tier unless the env var forces one; the once-per-process
    // discipline (and the degrade-to-ttable path for a hardware kind forced
    // on a CPU without it) lives in resolve_backend_env_once.
    static constexpr std::pair<std::string_view, Aes_backend_kind> names[] = {
        {"scalar", Aes_backend_kind::scalar},
        {"ttable", Aes_backend_kind::ttable},
        {"aesni", Aes_backend_kind::aesni}};
    const Aes_backend_kind preferred =
        aesni_backend() != nullptr ? Aes_backend_kind::aesni : Aes_backend_kind::ttable;
    return resolve_backend_env_once<Aes_backend_kind>(
        "SEDA_AES_BACKEND", names, preferred, backend_available, Aes_backend_kind::ttable);
}

const Aes_backend& backend_for(Aes_backend_kind kind)
{
    if (kind == Aes_backend_kind::auto_select) kind = default_backend_kind();
    switch (kind) {
        case Aes_backend_kind::scalar: return scalar_backend();
        case Aes_backend_kind::aesni:
            // Degrades to the software fast tier when the CPU can't run it,
            // so a kind persisted in config stays safe across machines.
            if (const Aes_backend* hw = aesni_backend()) return *hw;
            [[fallthrough]];
        default: return ttable_backend();
    }
}

std::span<const Aes_backend_kind> all_backend_kinds()
{
    static constexpr std::array<Aes_backend_kind, 3> kinds = {
        Aes_backend_kind::scalar, Aes_backend_kind::ttable, Aes_backend_kind::aesni};
    return kinds;
}

}  // namespace seda::crypto
