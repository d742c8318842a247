// FIPS-197 AES block cipher (128/192/256-bit keys), implemented from scratch.
//
// This is the functional model of the paper's "AES Engine" (Fig. 2(b)):
// keyExpansion, AddRoundKey, SubBytes, ShiftRows, MixColumns.  The round keys
// produced by keyExpansion are exposed because SeDA's bandwidth-aware
// encryption (B-AES, Fig. 3(a) / Algorithm 1 defense) derives per-segment
// one-time pads by XORing the base OTP with them.
//
// Only the forward cipher exists: every mode here (CTR, B-AES) decrypts by
// XORing the same pad, so the inverse cipher would never run.  The rounds
// run through a pluggable backend (crypto/aes_backend.h): a byte-wise scalar
// reference that mirrors the FIPS pseudocode, a table-driven software tier
// (four 256-entry u32 tables, word-wise rounds), and AES-NI, the default
// wherever the CPU has it.  Every backend consumes the same key schedule and
// must produce identical ciphertext; tests/crypto/aes_backend_test.cpp
// cross-validates them.
//
// The S-box is generated at compile time from the GF(2^8) field inverse and
// the FIPS affine transform, which removes any transcription risk; the
// FIPS-197 appendix vectors are checked in tests/crypto/aes_test.cpp.
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace seda::crypto {

/// One 128-bit AES state / data block.
using Block16 = std::array<u8, 16>;

/// XOR of two 16-byte blocks; the workhorse of CTR mode and B-AES.
[[nodiscard]] constexpr Block16 xor_blocks(const Block16& a, const Block16& b)
{
    Block16 out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<u8>(a[i] ^ b[i]);
    return out;
}

/// Which round implementation an Aes instance runs (see crypto/aes_backend.h).
enum class Aes_backend_kind {
    auto_select,  ///< aesni when the CPU has it, else ttable; SEDA_AES_BACKEND overrides
    scalar,       ///< byte-wise FIPS-197 reference
    ttable,       ///< four 256xu32 tables, word-wise rounds (software fast tier)
    aesni,        ///< AES-NI rounds (VAES 2x128-lane gear when available), CPUID-gated
};

[[nodiscard]] constexpr const char* to_string(Aes_backend_kind k)
{
    switch (k) {
        case Aes_backend_kind::auto_select: return "auto";
        case Aes_backend_kind::scalar: return "scalar";
        case Aes_backend_kind::ttable: return "ttable";
        case Aes_backend_kind::aesni: return "aesni";
    }
    return "?";
}

/// Expanded key material shared by every backend.  The byte-form round keys
/// are the B-AES pad source; the word form feeds the table-driven rounds.
struct Aes_key_schedule {
    int rounds = 0;                   ///< 10 / 12 / 14 for AES-128/192/256
    std::vector<Block16> round_keys;  ///< rounds+1 byte-form round keys
    std::vector<u32> enc_words;       ///< 4*(rounds+1) big-endian column words
};

class Aes_backend;

/// AES cipher with a fixed key schedule.  Thread-compatible: const methods
/// may be called concurrently from multiple threads.
class Aes {
public:
    /// Builds the key schedule for a 16, 24 or 32-byte key (AES-128/192/256).
    /// Throws Seda_error for any other key length.  `kind` selects the round
    /// implementation; auto_select resolves to the process-wide default.
    explicit Aes(std::span<const u8> key,
                 Aes_backend_kind kind = Aes_backend_kind::auto_select);

    [[nodiscard]] Block16 encrypt_block(const Block16& in) const;

    /// Bulk interface: encrypts every block in place with one virtual
    /// dispatch for the whole span.  B-AES's batched base OTPs
    /// (Baes_engine::otps_many) run through here.
    void encrypt_blocks(std::span<Block16> blocks) const;

    /// Number of cipher rounds: 10 / 12 / 14 for AES-128/192/256.
    [[nodiscard]] int rounds() const { return schedule_.rounds; }

    /// Round keys from keyExpansion as rounds()+1 16-byte blocks.
    /// B-AES XORs these onto the base OTP to fan out per-segment pads.
    [[nodiscard]] std::span<const Block16> round_keys() const
    {
        return schedule_.round_keys;
    }

    [[nodiscard]] const Aes_key_schedule& schedule() const { return schedule_; }
    [[nodiscard]] std::string_view backend_name() const;

private:
    Aes_key_schedule schedule_;
    const Aes_backend* backend_ = nullptr;
};

/// GF(2^8) multiply modulo the AES polynomial x^8+x^4+x^3+x+1.  Exposed for
/// tests and for the S-box generation.
[[nodiscard]] constexpr u8 gf_mul(u8 a, u8 b)
{
    u8 p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1) p = static_cast<u8>(p ^ a);
        const bool hi = (a & 0x80) != 0;
        a = static_cast<u8>(a << 1);
        if (hi) a = static_cast<u8>(a ^ 0x1B);
        b = static_cast<u8>(b >> 1);
    }
    return p;
}

/// The AES forward S-box value for `x` (field inverse + affine transform).
[[nodiscard]] constexpr u8 aes_sbox_value(u8 x)
{
    // Multiplicative inverse via exponentiation: x^254 = x^-1 in GF(2^8).
    u8 inv = 0;
    if (x != 0) {
        u8 acc = 1;
        u8 base = x;
        int e = 254;
        while (e > 0) {
            if (e & 1) acc = gf_mul(acc, base);
            base = gf_mul(base, base);
            e >>= 1;
        }
        inv = acc;
    }
    const auto rotl8 = [](u8 v, int s) {
        return static_cast<u8>(static_cast<u8>(v << s) | static_cast<u8>(v >> (8 - s)));
    };
    return static_cast<u8>(inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^
                           rotl8(inv, 4) ^ 0x63);
}

/// The full forward S-box, generated at compile time.
[[nodiscard]] constexpr std::array<u8, 256> make_aes_sbox()
{
    std::array<u8, 256> t{};
    for (int i = 0; i < 256; ++i)
        t[static_cast<std::size_t>(i)] = aes_sbox_value(static_cast<u8>(i));
    return t;
}

/// Round keys of the widest schedule: AES-256's rounds+1 = 15.
inline constexpr std::size_t k_max_round_keys = 15;

/// Fixed storage for one keyExpansion, so B-AES derived pad banks expand
/// without touching the heap.
using Round_key_bank = std::array<Block16, k_max_round_keys>;

/// keyExpansion alone: writes the rounds+1 byte-form round keys for a
/// 16/24/32-byte key (throws Seda_error otherwise) to the front of `out` and
/// returns their count, without the word-form schedules an Aes instance
/// carries.  B-AES derived pad banks only need these.  AES-128 expansion
/// runs through aeskeygenassist when the AES-NI backend is available; the
/// result is bit-identical to the portable path.
[[nodiscard]] std::size_t expand_round_keys(std::span<const u8> key, Round_key_bank& out);

/// The portable RotWord/SubWord/Rcon expansion, unconditionally.  Exposed so
/// tests can cross-validate the aeskeygenassist path against it.
[[nodiscard]] std::size_t expand_round_keys_portable(std::span<const u8> key,
                                                     Round_key_bank& out);

}  // namespace seda::crypto
