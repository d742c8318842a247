#include "crypto/sha256_backend.h"

#include <string_view>
#include <utility>

#include "common/bitutil.h"
#include "common/envutil.h"

namespace seda::crypto {
namespace {

// First 32 bits of the fractional parts of the cube roots of the first 64
// primes (FIPS 180-4 sec. 4.2.2).
constexpr std::array<u32, 64> k_k = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// The FIPS logical functions (sec. 4.1.2).
constexpr u32 rotr(u32 x, int s) { return (x >> s) | (x << (32 - s)); }
constexpr u32 big_sigma0(u32 x) { return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22); }
constexpr u32 big_sigma1(u32 x) { return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25); }
constexpr u32 small_sigma0(u32 x) { return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3); }
constexpr u32 small_sigma1(u32 x) { return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10); }
constexpr u32 ch(u32 x, u32 y, u32 z) { return (x & y) ^ (~x & z); }
constexpr u32 maj(u32 x, u32 y, u32 z) { return (x & y) ^ (x & z) ^ (y & z); }

// ------------------------------------------------------- scalar backend ----

/// Loop-form compression mirroring the FIPS 180-4 pseudocode: the full
/// 64-entry message schedule is materialized, one round per iteration.
void compress_scalar(Sha256_state& h_, const u8* p)
{
    std::array<u32, 64> w{};
    for (int t = 0; t < 16; ++t) w[static_cast<std::size_t>(t)] = load_be32(p + 4 * t);
    for (int t = 16; t < 64; ++t)
        w[static_cast<std::size_t>(t)] =
            small_sigma1(w[static_cast<std::size_t>(t - 2)]) + w[static_cast<std::size_t>(t - 7)] +
            small_sigma0(w[static_cast<std::size_t>(t - 15)]) + w[static_cast<std::size_t>(t - 16)];

    u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    u32 e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int t = 0; t < 64; ++t) {
        const u32 t1 = h + big_sigma1(e) + ch(e, f, g) + k_k[static_cast<std::size_t>(t)] +
                       w[static_cast<std::size_t>(t)];
        const u32 t2 = big_sigma0(a) + maj(a, b, c);
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

class Scalar_sha256_backend final : public Sha256_backend {
public:
    [[nodiscard]] std::string_view name() const override { return "scalar"; }

    void compress(Sha256_state& state, const u8* data, std::size_t nblocks) const override
    {
        for (std::size_t b = 0; b < nblocks; ++b) compress_scalar(state, data + 64 * b);
    }
};

// --------------------------------------------------------- fast backend ----
//
// Fully unrolled: the 16-word message schedule rolls through w[t & 15] in
// registers and the a..h working variables are *renamed* per round (the
// macro arguments rotate) instead of shifted, so the eight values never
// move.

// One round at index `i`: reads the rolling schedule, bumps D and H.
// A..H name the locals holding the working variables in rotated roles.
#define SEDA_SHA_RND(A, B, C, D, E, F, G, H, i)                                  \
    {                                                                            \
        const u32 t1 = H + big_sigma1(E) + ch(E, F, G) + k_k[(i)] + w[(i) & 15]; \
        const u32 t2 = big_sigma0(A) + maj(A, B, C);                             \
        D += t1;                                                                 \
        H = t1 + t2;                                                             \
    }

// Rolling-schedule update for round i >= 16, then the round itself.
#define SEDA_SHA_RNDX(A, B, C, D, E, F, G, H, i)                                 \
    w[(i) & 15] += small_sigma1(w[((i) + 14) & 15]) + w[((i) + 9) & 15] +        \
                   small_sigma0(w[((i) + 1) & 15]);                              \
    SEDA_SHA_RND(A, B, C, D, E, F, G, H, i)

/// One unrolled compression of the 64-byte block at `p` into `s`.
void compress_unrolled(Sha256_state& s, const u8* p)
{
    u32 w[16];
    for (int t = 0; t < 16; ++t) w[t] = load_be32(p + 4 * t);
    u32 a = s[0], b = s[1], c = s[2], d = s[3];
    u32 e = s[4], f = s[5], g = s[6], h = s[7];

    SEDA_SHA_RND(a, b, c, d, e, f, g, h, 0)
    SEDA_SHA_RND(h, a, b, c, d, e, f, g, 1)
    SEDA_SHA_RND(g, h, a, b, c, d, e, f, 2)
    SEDA_SHA_RND(f, g, h, a, b, c, d, e, 3)
    SEDA_SHA_RND(e, f, g, h, a, b, c, d, 4)
    SEDA_SHA_RND(d, e, f, g, h, a, b, c, 5)
    SEDA_SHA_RND(c, d, e, f, g, h, a, b, 6)
    SEDA_SHA_RND(b, c, d, e, f, g, h, a, 7)
    SEDA_SHA_RND(a, b, c, d, e, f, g, h, 8)
    SEDA_SHA_RND(h, a, b, c, d, e, f, g, 9)
    SEDA_SHA_RND(g, h, a, b, c, d, e, f, 10)
    SEDA_SHA_RND(f, g, h, a, b, c, d, e, 11)
    SEDA_SHA_RND(e, f, g, h, a, b, c, d, 12)
    SEDA_SHA_RND(d, e, f, g, h, a, b, c, 13)
    SEDA_SHA_RND(c, d, e, f, g, h, a, b, 14)
    SEDA_SHA_RND(b, c, d, e, f, g, h, a, 15)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 16)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 17)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 18)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 19)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 20)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 21)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 22)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 23)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 24)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 25)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 26)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 27)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 28)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 29)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 30)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 31)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 32)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 33)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 34)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 35)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 36)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 37)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 38)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 39)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 40)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 41)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 42)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 43)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 44)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 45)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 46)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 47)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 48)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 49)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 50)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 51)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 52)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 53)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 54)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 55)
    SEDA_SHA_RNDX(a, b, c, d, e, f, g, h, 56)
    SEDA_SHA_RNDX(h, a, b, c, d, e, f, g, 57)
    SEDA_SHA_RNDX(g, h, a, b, c, d, e, f, 58)
    SEDA_SHA_RNDX(f, g, h, a, b, c, d, e, 59)
    SEDA_SHA_RNDX(e, f, g, h, a, b, c, d, 60)
    SEDA_SHA_RNDX(d, e, f, g, h, a, b, c, 61)
    SEDA_SHA_RNDX(c, d, e, f, g, h, a, b, 62)
    SEDA_SHA_RNDX(b, c, d, e, f, g, h, a, 63)

    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

#undef SEDA_SHA_RNDX
#undef SEDA_SHA_RND

class Fast_sha256_backend final : public Sha256_backend {
public:
    [[nodiscard]] std::string_view name() const override { return "fast"; }

    void compress(Sha256_state& state, const u8* data, std::size_t nblocks) const override
    {
        for (std::size_t b = 0; b < nblocks; ++b) compress_unrolled(state, data + 64 * b);
    }
};

const Scalar_sha256_backend k_scalar_sha256_backend;
const Fast_sha256_backend k_fast_sha256_backend;

}  // namespace

const Sha256_backend& scalar_sha256_backend() { return k_scalar_sha256_backend; }
const Sha256_backend& fast_sha256_backend() { return k_fast_sha256_backend; }

bool sha256_backend_available(Sha256_backend_kind kind)
{
    return kind != Sha256_backend_kind::shani || shani_sha256_backend() != nullptr;
}

Sha256_backend_kind default_sha256_backend_kind()
{
    // Best available tier unless the env var forces one; the once-per-process
    // discipline (and the degrade-to-fast path for a hardware kind forced on
    // a CPU without it) lives in resolve_backend_env_once.
    static constexpr std::pair<std::string_view, Sha256_backend_kind> names[] = {
        {"scalar", Sha256_backend_kind::scalar},
        {"fast", Sha256_backend_kind::fast},
        {"shani", Sha256_backend_kind::shani}};
    const Sha256_backend_kind preferred = shani_sha256_backend() != nullptr
                                              ? Sha256_backend_kind::shani
                                              : Sha256_backend_kind::fast;
    return resolve_backend_env_once<Sha256_backend_kind>(
        "SEDA_SHA_BACKEND", names, preferred, sha256_backend_available,
        Sha256_backend_kind::fast);
}

const Sha256_backend& sha256_backend_for(Sha256_backend_kind kind)
{
    if (kind == Sha256_backend_kind::auto_select) kind = default_sha256_backend_kind();
    switch (kind) {
        case Sha256_backend_kind::scalar: return scalar_sha256_backend();
        case Sha256_backend_kind::shani:
            // Degrades to the software fast tier when the CPU can't run it,
            // so a kind persisted in config stays safe across machines.
            if (const Sha256_backend* hw = shani_sha256_backend()) return *hw;
            [[fallthrough]];
        default: return fast_sha256_backend();
    }
}

std::span<const Sha256_backend_kind> all_sha256_backend_kinds()
{
    static constexpr std::array<Sha256_backend_kind, 3> kinds = {
        Sha256_backend_kind::scalar, Sha256_backend_kind::fast,
        Sha256_backend_kind::shani};
    return kinds;
}

}  // namespace seda::crypto
