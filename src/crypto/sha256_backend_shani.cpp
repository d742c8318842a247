// The SHA-NI hardware backend: FIPS 180-4 compression as instructions.
//
// sha256rnds2 executes two rounds on the (ABEF, CDGH) state halves; the
// message schedule advances through sha256msg1/sha256msg2 plus one alignr
// per 4-round group.  A 64-byte block costs 32 rnds2 plus schedule ops
// instead of the software tier's ~64 unrolled scalar rounds, and the state
// never leaves two XMM registers.
//
// The rnds2 chain of one message is serial (latency ~4-6 cycles), so a
// stream is latency-bound; SHA-256 serves only the KDF now (a few blocks
// per tenant key), so there is no multi-buffer gear.
//
// State packing follows the instruction's convention: state0 = ABEF,
// state1 = CDGH (high lane first), entered and left through the canonical
// shuffle/alignr/blend sequence.  Message words load big-endian via one
// pshufb per 16 bytes.
//
// The whole implementation sits in a target("sha,ssse3,sse4.1") pragma
// region (plus per-file -msha flags in CMake, belt and braces), so the TU
// builds under the baseline -march; runtime selection happens once in
// shani_sha256_backend() via __builtin_cpu_supports.  SEDA_DISABLE_HW_CRYPTO
// compiles the backend out, leaving the nullptr stub at the bottom.
#include "crypto/sha256_backend.h"

#if defined(__x86_64__) && !defined(SEDA_DISABLE_HW_CRYPTO)

#include <immintrin.h>

namespace seda::crypto {
namespace {

// The FIPS 180-4 round constants (sec. 4.2.2), duplicated from the software
// TU: k4() below wants them contiguous in this TU's .rodata, and the
// anonymous-namespace copy there is deliberately not exported.
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

#pragma GCC push_options
#pragma GCC target("sha,ssse3,sse4.1")

/// K constants for 4-round group `g`, one per lane.
inline __m128i k4(int g)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(&k_k[static_cast<std::size_t>(4 * g)]));
}

/// Big-endian 16-byte load: pshufb mask swapping each u32's bytes.
inline __m128i load_be_words(const u8* p)
{
    const __m128i mask = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), mask);
}

/// Four rounds with the schedule update for the NEXT occurrence of this
/// group's registers: cur holds W[4g..4g+3], nxt accumulates
/// W[4g+4..4g+7], prev is fed through msg1 for the group after.  The
/// three-operand schedule recurrence maps onto alignr + add + msg2 (sigma1
/// + adds) and msg1 (sigma0 + add), per the instruction split.
#define SEDA_SHANI_GRP(g, cur, nxt, prev, do_msg1)                                 \
    msg = _mm_add_epi32(cur, k4(g));                                               \
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);                                       \
    nxt = _mm_sha256msg2_epu32(_mm_add_epi32(nxt, _mm_alignr_epi8(cur, prev, 4)), cur); \
    msg = _mm_shuffle_epi32(msg, 0x0E);                                            \
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);                                       \
    if constexpr (do_msg1) prev = _mm_sha256msg1_epu32(prev, cur);

/// Four rounds over the schedule words `w` of group `g`: each rnds2 runs
/// two, the second on the high pair.
#define SEDA_SHANI_RNDS4(w, g)                                                     \
    msg = _mm_add_epi32(w, k4(g));                                                 \
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);                                       \
    msg = _mm_shuffle_epi32(msg, 0x0E);                                            \
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);

/// `nblocks` consecutive 64-byte blocks of one stream; the packed state
/// enters and leaves registers exactly once.
void compress_shani(Sha256_state& state, const u8* p, std::size_t nblocks)
{
    // (a,b,c,d) and (e,f,g,h) -> the (ABEF, CDGH) packing rnds2 wants.
    __m128i abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
    __m128i efgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
    abcd = _mm_shuffle_epi32(abcd, 0xB1);             // (b,a,d,c)
    efgh = _mm_shuffle_epi32(efgh, 0x1B);             // (h,g,f,e)
    __m128i s0 = _mm_alignr_epi8(abcd, efgh, 8);      // ABEF
    __m128i s1 = _mm_blend_epi16(efgh, abcd, 0xF0);   // CDGH

    for (std::size_t b = 0; b < nblocks; ++b, p += 64) {
        const __m128i save0 = s0;
        const __m128i save1 = s1;
        __m128i msg;

        // Rounds 0-11: schedule registers fill as the first groups retire.
        __m128i t0 = load_be_words(p);
        SEDA_SHANI_RNDS4(t0, 0)
        __m128i t1 = load_be_words(p + 16);
        SEDA_SHANI_RNDS4(t1, 1)
        t0 = _mm_sha256msg1_epu32(t0, t1);
        __m128i t2 = load_be_words(p + 32);
        SEDA_SHANI_RNDS4(t2, 2)
        t1 = _mm_sha256msg1_epu32(t1, t2);

        // Rounds 12-15: the last load; the schedule recurrence starts rolling.
        __m128i t3 = load_be_words(p + 48);
        SEDA_SHANI_GRP(3, t3, t0, t2, true)

        // Rounds 16-51: the rolling pattern, schedule registers rotating roles.
        SEDA_SHANI_GRP(4, t0, t1, t3, true)
        SEDA_SHANI_GRP(5, t1, t2, t0, true)
        SEDA_SHANI_GRP(6, t2, t3, t1, true)
        SEDA_SHANI_GRP(7, t3, t0, t2, true)
        SEDA_SHANI_GRP(8, t0, t1, t3, true)
        SEDA_SHANI_GRP(9, t1, t2, t0, true)
        SEDA_SHANI_GRP(10, t2, t3, t1, true)
        SEDA_SHANI_GRP(11, t3, t0, t2, true)
        SEDA_SHANI_GRP(12, t0, t1, t3, true)

        // Rounds 52-59: no further msg1 -- W[64..] is never needed.
        SEDA_SHANI_GRP(13, t1, t2, t0, false)
        SEDA_SHANI_GRP(14, t2, t3, t1, false)

        // Rounds 60-63.
        SEDA_SHANI_RNDS4(t3, 15)

        s0 = _mm_add_epi32(s0, save0);
        s1 = _mm_add_epi32(s1, save1);
    }

    const __m128i feba = _mm_shuffle_epi32(s0, 0x1B);   // (a,b,e,f)
    const __m128i dchg = _mm_shuffle_epi32(s1, 0xB1);   // (g,h,c,d)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#undef SEDA_SHANI_RNDS4
#undef SEDA_SHANI_GRP

class Shani_sha256_backend final : public Sha256_backend {
public:
    [[nodiscard]] std::string_view name() const override { return "shani"; }

    void compress(Sha256_state& state, const u8* data, std::size_t nblocks) const override
    {
        compress_shani(state, data, nblocks);
    }
};

#pragma GCC pop_options

const Shani_sha256_backend k_shani_backend;

}  // namespace

const Sha256_backend* shani_sha256_backend()
{
    static const bool available = __builtin_cpu_supports("sha") &&
                                  __builtin_cpu_supports("ssse3") &&
                                  __builtin_cpu_supports("sse4.1");
    return available ? &k_shani_backend : nullptr;
}

}  // namespace seda::crypto

#else  // non-x86 build or SEDA_DISABLE_HW_CRYPTO: the backend compiles out.

namespace seda::crypto {

const Sha256_backend* shani_sha256_backend() { return nullptr; }

}  // namespace seda::crypto

#endif
