#include "crypto/kdf.h"

#include <algorithm>
#include <array>

#include "common/bitutil.h"
#include "common/error.h"

namespace seda::crypto {

Digest256 hmac_sha256(std::span<const u8> key, std::span<const u8> message)
{
    constexpr std::size_t block = 64;  // SHA-256 block size in bytes
    std::array<u8, block> k0{};
    if (key.size() > block) {
        const Digest256 kd = sha256(key);
        std::copy(kd.begin(), kd.end(), k0.begin());
    } else {
        std::copy(key.begin(), key.end(), k0.begin());
    }
    std::array<u8, block> ipad{};
    std::array<u8, block> opad{};
    for (std::size_t i = 0; i < block; ++i) {
        ipad[i] = static_cast<u8>(k0[i] ^ 0x36);
        opad[i] = static_cast<u8>(k0[i] ^ 0x5c);
    }
    Sha256 inner;
    inner.update(ipad);
    inner.update(message);
    const Digest256 inner_digest = inner.finish();
    Sha256 outer;
    outer.update(opad);
    outer.update(inner_digest);
    return outer.finish();
}

std::vector<u8> derive_key(std::span<const u8> master, std::string_view label, u64 id,
                           std::size_t out_bytes)
{
    require(!master.empty(), "derive_key: master key must not be empty");
    require(out_bytes >= 1 && out_bytes <= 32,
            "derive_key: out_bytes must be in [1, 32] (one HMAC-SHA256 block)");

    std::vector<u8> message;
    message.reserve(label.size() + 9);
    message.insert(message.end(), label.begin(), label.end());
    u8 be_id[8];
    store_be64(be_id, id);
    message.insert(message.end(), be_id, be_id + 8);
    message.push_back(0x01);  // HKDF-expand block counter (single block)

    const Digest256 prk = hmac_sha256(master, message);
    return std::vector<u8>(prk.begin(), prk.begin() + out_bytes);
}

}  // namespace seda::crypto
