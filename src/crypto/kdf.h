// Deterministic subkey derivation for the multi-tenant serving layer.
//
// Each tenant of a serve::Server owns an isolated (encryption, MAC) key
// pair derived from the operator's master keys, so a compromise of one
// tenant's keys -- or a cross-tenant splice of stored units -- never
// verifies under another tenant's engines (tests/serve/ holds this).  The
// construction is a single-block HKDF-expand:
//
//     subkey = HMAC-SHA256(master, label || BE64(id) || 0x01)[:out_bytes]
//
// HMAC's PRF property gives computational independence between subkeys of
// distinct (label, id) pairs; the label separates key *roles* (encryption
// vs MAC) so the two subkeys of one tenant never coincide even when the
// master keys do.  This is the only HMAC-SHA256 in the stack: unit MACs
// are AES-CMAC (crypto/mac.h).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "crypto/sha256.h"

namespace seda::crypto {

/// HMAC-SHA256 per RFC 2104 / FIPS 198-1 (the KDF's PRF).
[[nodiscard]] Digest256 hmac_sha256(std::span<const u8> key, std::span<const u8> message);

/// Derives `out_bytes` (<= 32) of subkey from `master` for (label, id).
/// Deterministic: same inputs, same subkey, on every platform.
[[nodiscard]] std::vector<u8> derive_key(std::span<const u8> master, std::string_view label,
                                         u64 id, std::size_t out_bytes = 16);

}  // namespace seda::crypto
