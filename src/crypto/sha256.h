// FIPS 180-4 SHA-256, implemented from scratch.
//
// Backs the tenant key derivation (HMAC-SHA256 in crypto/kdf.h); unit MACs
// run on AES (crypto/mac.h).  The compression function runs through a
// pluggable backend (crypto/sha256_backend.h): a loop-form scalar
// reference, an unrolled software tier and SHA-NI.  Validated against the
// FIPS vectors in tests/crypto/sha256_test.cpp; backends are
// cross-validated bit-identical in tests/crypto/sha256_backend_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/types.h"

namespace seda::crypto {

using Digest256 = std::array<u8, 32>;

/// The eight 32-bit chaining words of an in-flight SHA-256 computation.
using Sha256_state = std::array<u32, 8>;

/// Which compression implementation a Sha256 instance runs (see
/// crypto/sha256_backend.h).
enum class Sha256_backend_kind {
    auto_select,  ///< shani when the CPU has it, else fast; SEDA_SHA_BACKEND overrides
    scalar,       ///< loop-form FIPS 180-4 reference
    fast,         ///< unrolled rounds, rolling schedule in registers
    shani,        ///< SHA-NI sha256rnds2/msg1/msg2 compression, CPUID-gated
};

[[nodiscard]] constexpr const char* to_string(Sha256_backend_kind k)
{
    switch (k) {
        case Sha256_backend_kind::auto_select: return "auto";
        case Sha256_backend_kind::scalar: return "scalar";
        case Sha256_backend_kind::fast: return "fast";
        case Sha256_backend_kind::shani: return "shani";
    }
    return "?";
}

class Sha256_backend;

/// Incremental SHA-256 hasher.
///
/// Contract: update() may be called any number of times; finish() pads,
/// returns the digest and resets the hasher, so the same object may be
/// reused for a fresh message immediately (reuse-after-finalize is safe by
/// construction).  Instances are freely copyable (a copy captures the
/// mid-state).  Thread-compatible: distinct instances may be used concurrently; one
/// instance must not be shared across threads while being updated.
class Sha256 {
public:
    explicit Sha256(Sha256_backend_kind kind = Sha256_backend_kind::auto_select);

    void reset();
    void update(std::span<const u8> data);
    /// Finalizes and returns the digest; the hasher resets itself for reuse.
    [[nodiscard]] Digest256 finish();

private:
    const Sha256_backend* backend_;
    Sha256_state h_{};
    std::array<u8, 64> buf_{};
    std::size_t buf_len_ = 0;
    u64 total_len_ = 0;
};

/// One-shot convenience wrapper (process-default backend).
[[nodiscard]] Digest256 sha256(std::span<const u8> data);

/// Hex string of a digest, for diagnostics and tests.
[[nodiscard]] std::string to_hex(std::span<const u8> bytes);

}  // namespace seda::crypto
