#include "crypto/baes.h"

#include <algorithm>
#include <array>

#include "common/bitutil.h"
#include "common/error.h"

namespace seda::crypto {

Baes_engine::Baes_engine(std::span<const u8> key, Aes_backend_kind kind)
    : key_(key.begin(), key.end()), ctr_(key, kind)
{
}

std::vector<Block16> Baes_engine::otps(Addr pa, u64 vn, std::size_t lanes) const
{
    const Block16 base = ctr_.otp(pa, vn);
    std::vector<Block16> pads;
    lane_keys(pa, vn, lanes, pads);
    for (Block16& pad : pads) pad = xor_blocks(base, pad);
    return pads;
}

void Baes_engine::otps_many(std::span<const Otp_request> reqs,
                            std::span<Block16> bases) const
{
    require(reqs.size() == bases.size(),
            "Baes_engine::otps_many: bases span must match requests");
    for (std::size_t i = 0; i < reqs.size(); ++i)
        bases[i] = make_counter(reqs[i].pa, reqs[i].vn);
    ctr_.engine().encrypt_blocks(bases);
}

void Baes_engine::lane_keys(Addr pa, u64 vn, std::size_t lanes,
                            std::vector<Block16>& keys) const
{
    const auto primary = ctr_.engine().round_keys();
    keys.assign(primary.begin(), primary.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min(lanes, primary.size())));

    // Extension for very wide units: re-key the expansion with
    // key ^ (PA || VN) ^ bank to mint additional independent key banks.
    // Only keyExpansion runs here -- no cipher schedule is built -- and it
    // runs into fixed storage, so a bank costs no heap traffic.
    std::array<u8, 32> derived{};
    Round_key_bank bank;
    for (u64 b = 1; keys.size() < lanes; ++b) {
        const Block16 ctr_block = counter_add(make_counter(pa, vn), b);
        for (std::size_t i = 0; i < key_.size(); ++i)
            derived[i] = static_cast<u8>(key_[i] ^ ctr_block[i % ctr_block.size()]);
        const std::size_t count = expand_round_keys({derived.data(), key_.size()}, bank);
        keys.insert(keys.end(), bank.begin(),
                    bank.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(count, lanes - keys.size())));
    }
}

void Baes_engine::crypt(std::span<u8> data, Addr pa, u64 vn) const
{
    std::vector<Block16> keys;
    crypt_with_base(data, pa, vn, ctr_.otp(pa, vn), keys);
}

void Baes_engine::crypt_with_base(std::span<u8> data, Addr pa, u64 vn, const Block16& base,
                                  std::vector<Block16>& key_scratch) const
{
    const auto primary = ctr_.engine().round_keys();
    const std::size_t lanes = ceil_div(data.size(), k_aes_block_bytes);
    if (lanes <= primary.size()) {
        // One bank covers the unit: every pad is base ^ a primary round key,
        // XORed straight into its segment.
        xor_lanes(data, base, primary);
        return;
    }
    lane_keys(pa, vn, lanes, key_scratch);
    xor_lanes(data, base, key_scratch);
}

void Baes_engine::xor_lanes(std::span<u8> data, const Block16& base,
                            std::span<const Block16> keys)
{
    const std::size_t full = data.size() / k_aes_block_bytes;
    for (std::size_t seg = 0; seg < full; ++seg) {
        const Block16 pad = xor_blocks(base, keys[seg]);
        xor_16_bytes(data.data() + seg * k_aes_block_bytes, pad.data());
    }
    if (const std::size_t tail = data.size() % k_aes_block_bytes; tail != 0) {
        const Block16 pad = xor_blocks(base, keys[full]);
        u8* p = data.data() + full * k_aes_block_bytes;
        for (std::size_t i = 0; i < tail; ++i) p[i] = static_cast<u8>(p[i] ^ pad[i]);
    }
}

}  // namespace seda::crypto
