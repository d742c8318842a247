// Pluggable AES round implementations behind one key schedule.
//
// The functional secure-memory stack pushes every protected unit through
// AES: B-AES encrypts one PA || VN counter per unit and fans the result out
// across the round keys, so a backend only ever runs the forward cipher over
// a batch of blocks.  Three backends exist deliberately:
//
//   * scalar  - byte-wise SubBytes/ShiftRows/MixColumns that mirrors the
//               FIPS-197 pseudocode (gf_mul per MixColumns term).  Slow, but
//               the obviously-correct reference every other backend is
//               cross-validated against.
//   * ttable  - the classic four 256xu32 T-tables (SubBytes + ShiftRows +
//               MixColumns fused per byte), word-wise rounds over u32 round
//               keys.  The software analogue of a pipelined hardware engine
//               and the fallback tier on CPUs without AES-NI.
//   * aesni   - hardware rounds via aesenc with 8 blocks in flight, and a
//               VAES 2x128-bit-lane gear when the CPU has it.  CPUID-gated
//               at runtime; the default wherever available
//               (src/crypto/aes_backend_aesni.cpp).  The same file holds
//               the unit-MAC gear (aesni_positional_cmacs) that
//               Cmac_engine takes on this backend.
//
// Backends are stateless singletons: the key schedule travels with the Aes
// instance, so one backend object serves any number of keys concurrently.
// Selection happens at Aes construction (Aes_backend_kind); auto_select
// resolves once per process to the best available tier (aesni -> ttable)
// unless the SEDA_AES_BACKEND environment variable names a backend, which
// is the cross-validation escape hatch for whole binaries.
#pragma once

#include <span>
#include <string_view>

#include "crypto/aes.h"

namespace seda::crypto {

struct Mac_request;

/// One round implementation.  Implementations must be stateless (aside from
/// immutable tables) so const use is thread-safe.
class Aes_backend {
public:
    virtual ~Aes_backend() = default;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Encrypts every block in place under `ks`.
    virtual void encrypt_blocks(const Aes_key_schedule& ks,
                                std::span<Block16> blocks) const = 0;
};

/// The byte-wise FIPS-197 reference backend.
[[nodiscard]] const Aes_backend& scalar_backend();

/// The table-driven software fast backend.
[[nodiscard]] const Aes_backend& ttable_backend();

/// The AES-NI hardware backend, or nullptr when it can't run here (CPU
/// without the aes feature, non-x86 build, or SEDA_DISABLE_HW_CRYPTO).
[[nodiscard]] const Aes_backend* aesni_backend();

/// Whether `kind` can run on this CPU/build.  scalar and ttable are always
/// available; aesni mirrors aesni_backend() != nullptr.  Tests and the CLI
/// use this to enumerate/force only what the host supports.
[[nodiscard]] bool backend_available(Aes_backend_kind kind);

/// Resolves a kind to a backend; auto_select honours SEDA_AES_BACKEND
/// ("scalar", "ttable" or "aesni", read once per process) and otherwise
/// picks the best available tier (aesni -> ttable).  A kind forced on a
/// CPU that lacks it degrades to ttable (with a once-only warning when the
/// forcing came from the environment).
[[nodiscard]] const Aes_backend& backend_for(Aes_backend_kind kind);

/// What auto_select currently resolves to.
[[nodiscard]] Aes_backend_kind default_backend_kind();

/// The concrete backends, for cross-validation sweeps.  Includes hardware
/// kinds unconditionally; pair with backend_available() to skip what the
/// host can't run.
[[nodiscard]] std::span<const Aes_backend_kind> all_backend_kinds();

/// CPU crypto features relevant to backend selection, as CPUID reports them
/// (independent of SEDA_DISABLE_HW_CRYPTO; all false on non-x86).
struct Cpu_crypto_features {
    bool aes = false;     ///< AES-NI round instructions
    bool vaes = false;    ///< 256-bit vector AES (with avx2: the wide gear)
    bool sha_ni = false;  ///< SHA extensions (sha256rnds2/msg1/msg2)
    bool avx2 = false;    ///< 32-byte integer vectors
};
[[nodiscard]] Cpu_crypto_features cpu_crypto_features();

/// AES-128 key expansion via aeskeygenassist, used by expand_round_keys as
/// a drop-in for the portable path: writes the 11 round keys to the front of
/// `out`.  Returns false (leaving `out` untouched) unless the key is 16 bytes
/// and the AES-NI backend is available.
[[nodiscard]] bool aesni_expand_round_keys128(std::span<const u8> key, Round_key_bank& out);

/// The unit-MAC gear behind Cmac_engine::positional_macs on the aesni
/// backend: out[i] = the 64-bit truncated AES-CMAC of reqs[i].ciphertext
/// followed by its 28 position bytes (crypto/mac.h), under the schedule `ks`
/// and CMAC subkey `k2`.  Every ciphertext must be the same whole number of
/// 16 B blocks (Secure_memory units always are), so each message is those
/// blocks, one complete position block and one padded final block; the CBC
/// chains of a group of units stay in registers across all of them.  The
/// VAES gear (vaes+avx2) holds 16 chains in 8 ymm registers, the SSE gear 8
/// in xmm registers; CPUID picks one once per process, as for the bulk
/// cipher.  Returns false (leaving `out` untouched) when the AES-NI backend
/// is unavailable or the ciphertexts are not all the same whole number of
/// blocks.  `out.size()` must equal `reqs.size()` (Seda_error otherwise).
[[nodiscard]] bool aesni_positional_cmacs(const Aes_key_schedule& ks, const Block16& k2,
                                          std::span<const Mac_request> reqs,
                                          std::span<u64> out);

/// aesni_positional_cmacs with the SSE gear forced.  Exposed so tests can
/// cross-validate that gear on hosts where CPUID picks VAES.
[[nodiscard]] bool aesni_positional_cmacs_sse(const Aes_key_schedule& ks, const Block16& k2,
                                              std::span<const Mac_request> reqs,
                                              std::span<u64> out);

}  // namespace seda::crypto
