// The name of SHA-256's one portable implementation (crypto/sha256.h).  The
// repo benchmark's host fingerprint (perfbench/src/main.cpp) reports it
// beside the AES backend and is kept source-stable, so this header stays.
#pragma once

namespace seda::crypto {

enum class Sha256_backend_kind { scalar };

[[nodiscard]] constexpr const char* to_string(Sha256_backend_kind) { return "scalar"; }

[[nodiscard]] constexpr Sha256_backend_kind default_sha256_backend_kind()
{
    return Sha256_backend_kind::scalar;
}

}  // namespace seda::crypto
