// Pluggable SHA-256 compression implementations, mirroring crypto/aes_backend.h.
//
// SHA-256 serves only the key-derivation function (crypto/kdf.h, HMAC-SHA256
// per tenant key); the unit MACs run on AES (crypto/mac.h).  Three backends
// exist:
//
//   * scalar - the loop-form compression that mirrors the FIPS 180-4
//              pseudocode (64-entry message schedule in memory, one round
//              per loop iteration).  Slow, but the obviously-correct
//              reference every other backend is cross-validated against.
//   * fast   - fully unrolled rounds with the 16-word rolling message
//              schedule kept in registers.  The fallback tier on CPUs
//              without the SHA extensions.
//   * shani  - hardware compression via sha256rnds2/sha256msg1/sha256msg2.
//              CPUID-gated at runtime; the default wherever available
//              (src/crypto/sha256_backend_shani.cpp).
//
// Backends are stateless singletons (immutable round constants only), so
// const use is thread-safe and one backend object serves any number of
// hashers concurrently.  Selection happens at Sha256 construction
// (Sha256_backend_kind); auto_select resolves once per process to the best
// available tier (shani -> fast) unless the SEDA_SHA_BACKEND environment
// variable names a backend, which is the cross-validation escape hatch for
// whole binaries.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.h"

namespace seda::crypto {

/// SHA-256 block size in bytes (FIPS 180-4 sec. 5.2.1).
inline constexpr std::size_t k_sha256_block_bytes = 64;

/// Initial hash value H(0): the first 32 bits of the fractional parts of
/// the square roots of the first eight primes (FIPS 180-4 sec. 5.3.3).
[[nodiscard]] constexpr Sha256_state sha256_initial_state()
{
    return {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

/// One compression implementation.  Implementations must be stateless
/// (aside from immutable tables) so const use is thread-safe.
class Sha256_backend {
public:
    virtual ~Sha256_backend() = default;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Compresses `nblocks` consecutive 64-byte blocks at `data` into
    /// `state` (one serial message stream).
    virtual void compress(Sha256_state& state, const u8* data,
                          std::size_t nblocks) const = 0;
};

/// The loop-form FIPS 180-4 reference backend.
[[nodiscard]] const Sha256_backend& scalar_sha256_backend();

/// The unrolled fast backend.
[[nodiscard]] const Sha256_backend& fast_sha256_backend();

/// The SHA-NI hardware backend, or nullptr when it can't run here (CPU
/// without the sha feature, non-x86 build, or SEDA_DISABLE_HW_CRYPTO).
[[nodiscard]] const Sha256_backend* shani_sha256_backend();

/// Whether `kind` can run on this CPU/build.  scalar and fast are always
/// available; shani mirrors shani_sha256_backend() != nullptr.
[[nodiscard]] bool sha256_backend_available(Sha256_backend_kind kind);

/// Resolves a kind to a backend; auto_select honours SEDA_SHA_BACKEND
/// ("scalar", "fast" or "shani", read once per process) and otherwise picks
/// the best available tier (shani -> fast).  A kind forced on a CPU that
/// lacks it degrades to fast (with a once-only warning when the forcing
/// came from the environment).
[[nodiscard]] const Sha256_backend& sha256_backend_for(Sha256_backend_kind kind);

/// What auto_select currently resolves to.
[[nodiscard]] Sha256_backend_kind default_sha256_backend_kind();

/// The concrete backends, for cross-validation sweeps.  Includes hardware
/// kinds unconditionally; pair with sha256_backend_available() to skip what
/// the host can't run.
[[nodiscard]] std::span<const Sha256_backend_kind> all_sha256_backend_kinds();

}  // namespace seda::crypto
