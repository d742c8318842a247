#include "crypto/baes.h"
#include "common/bitutil.h"
#include "common/error.h"

namespace seda::crypto {

Baes_engine::Baes_engine(std::span<const u8> key, Aes_backend_kind kind)
    : key_(key.begin(), key.end()), ctr_(key, kind)
{
}

std::vector<Block16> Baes_engine::otps(Addr pa, u64 vn, std::size_t lanes) const
{
    std::vector<Block16> pads;
    fan_out(ctr_.otp(pa, vn), pa, vn, lanes, pads);
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

void Baes_engine::fan_out(const Block16& base, Addr pa, u64 vn, std::size_t lanes,
                          std::vector<Block16>& pads) const
{
    pads.clear();
    pads.reserve(lanes);
    const auto primary = ctr_.engine().round_keys();
    for (std::size_t i = 0; i < lanes && i < primary.size(); ++i)
        pads.push_back(xor_blocks(base, primary[i]));

    // Extension for very wide units: re-key the expansion with
    // key ^ (PA || VN) ^ bank to mint additional independent key banks.
    // Only keyExpansion runs here -- no cipher schedule is built.
    u64 bank = 1;
    while (pads.size() < lanes) {
        const Block16 ctr_block = counter_add(make_counter(pa, vn), bank);
        std::vector<u8> derived = key_;
        for (std::size_t i = 0; i < derived.size(); ++i)
            derived[i] = static_cast<u8>(derived[i] ^ ctr_block[i % ctr_block.size()]);
        for (const auto& rk : expand_round_keys(derived)) {
            if (pads.size() == lanes) break;
            pads.push_back(xor_blocks(base, rk));
        }
        ++bank;
    }
}

void Baes_engine::crypt(std::span<u8> data, Addr pa, u64 vn) const
{
    std::vector<Block16> pads;
    crypt_with_base(data, pa, vn, ctr_.otp(pa, vn), pads);
}

void Baes_engine::crypt_with_base(std::span<u8> data, Addr pa, u64 vn, const Block16& base,
                                  std::vector<Block16>& pad_scratch) const
{
    const std::size_t lanes = (data.size() + k_aes_block_bytes - 1) / k_aes_block_bytes;
    fan_out(base, pa, vn, lanes, pad_scratch);
    xor_lanes(data, pad_scratch);
}

void Baes_engine::xor_lanes(std::span<u8> data, std::span<const Block16> pads)
{
    const std::size_t lanes = (data.size() + k_aes_block_bytes - 1) / k_aes_block_bytes;
    for (std::size_t seg = 0; seg < lanes; ++seg) {
        const std::size_t off = seg * k_aes_block_bytes;
        const std::size_t n = std::min<std::size_t>(k_aes_block_bytes, data.size() - off);
        u8* p = data.data() + off;
        const u8* pad = pads[seg].data();
        if (n == k_aes_block_bytes) {
            xor_16_bytes(p, pad);
        } else {
            for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<u8>(p[i] ^ pad[i]);
        }
    }
}

}  // namespace seda::crypto
