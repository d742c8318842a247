// FIPS 180-4 SHA-256, implemented from scratch.
//
// Backs the tenant key derivation (HMAC-SHA256 in crypto/kdf.h); unit MACs
// run on AES (crypto/mac.h).  One portable loop-form compression: a 4-tenant
// server derives its 8 keys once, at construction, so SHA-256 is off the
// datapath.  Validated against the FIPS vectors and a known-answer table of
// padding-boundary lengths in tests/crypto/sha256_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/types.h"

namespace seda::crypto {

using Digest256 = std::array<u8, 32>;

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
    Sha256() { reset(); }

    void reset();
    void update(std::span<const u8> data);
    /// Finalizes and returns the digest; the hasher resets itself for reuse.
    [[nodiscard]] Digest256 finish();

private:
    std::array<u32, 8> h_{};
    std::array<u8, 64> buf_{};
    std::size_t buf_len_ = 0;
    u64 total_len_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] Digest256 sha256(std::span<const u8> data);

/// Hex string of a digest, for diagnostics and tests.
[[nodiscard]] std::string to_hex(std::span<const u8> bytes);

}  // namespace seda::crypto
