#include "crypto/attacks.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/error.h"

namespace seda::crypto {

Seca_result seca_attack(std::span<const u8> ciphertext, const Block16& most_value_p,
                        std::span<const u8> true_plaintext)
{
    require(ciphertext.size() == true_plaintext.size(),
            "seca_attack: oracle plaintext must match ciphertext length");
    require(ciphertext.size() % k_aes_block_bytes == 0,
            "seca_attack: ciphertext must be a multiple of 16 bytes");

    const std::size_t segments = ciphertext.size() / k_aes_block_bytes;
    Seca_result result;
    result.segments = segments;
    if (segments == 0) return result;

    // CALC_FREQ_VALUE (Alg. 1 l.1): histogram of 16-byte ciphertext values.
    std::map<Block16, std::size_t> freq;
    for (std::size_t s = 0; s < segments; ++s) {
        Block16 seg{};
        std::copy_n(ciphertext.begin() + static_cast<std::ptrdiff_t>(s * k_aes_block_bytes),
                    k_aes_block_bytes, seg.begin());
        ++freq[seg];
    }
    const auto most = std::max_element(
        freq.begin(), freq.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const Block16 most_value_c = most->first;

    // OTP <- most_value_p XOR most_value_c (Alg. 1 l.2).
    result.recovered_otp = xor_blocks(most_value_c, most_value_p);

    // value_p <- value_c XOR OTP for every segment (Alg. 1 l.3-4); count the
    // segments where the guess matches the oracle plaintext.
    for (std::size_t s = 0; s < segments; ++s) {
        bool ok = true;
        for (std::size_t i = 0; i < k_aes_block_bytes; ++i) {
            const std::size_t off = s * k_aes_block_bytes + i;
            const u8 guess = static_cast<u8>(ciphertext[off] ^ result.recovered_otp[i]);
            if (guess != true_plaintext[off]) {
                ok = false;
                break;
            }
        }
        if (ok) ++result.recovered;
    }
    return result;
}

std::vector<u8> make_sparse_plaintext(std::size_t bytes, double zero_fraction, Rng& rng)
{
    require(bytes % k_aes_block_bytes == 0,
            "make_sparse_plaintext: size must be a multiple of 16 bytes");
    std::vector<u8> data(bytes, 0);
    const std::size_t segments = bytes / k_aes_block_bytes;
    for (std::size_t s = 0; s < segments; ++s) {
        if (rng.next_unit() < zero_fraction) continue;  // all-zero segment
        for (std::size_t i = 0; i < k_aes_block_bytes; ++i)
            data[s * k_aes_block_bytes + i] = rng.next_byte();
    }
    return data;
}

Repa_result repa_attack(std::span<const std::vector<u8>> layer_blocks,
                        std::span<const Addr> block_addrs, std::span<const u64> block_vns,
                        u32 layer_id, std::span<const u8> mac_key, Layer_mac_kind kind,
                        Rng& rng)
{
    require(layer_blocks.size() == block_addrs.size() &&
                layer_blocks.size() == block_vns.size(),
            "repa_attack: blocks/addresses/VNs must have equal length");
    require(layer_blocks.size() >= 2, "repa_attack: need at least two blocks to shuffle");

    // One engine (key schedule + CMAC subkeys) for every block MAC below.
    const Cmac_engine engine(mac_key);
    const auto block_mac = [&](const std::vector<u8>& blk, std::size_t position) {
        if (kind == Layer_mac_kind::naive_xor) return engine.naive_mac(blk);
        Mac_context ctx;
        ctx.pa = block_addrs[position];
        ctx.vn = block_vns[position];
        ctx.layer_id = layer_id;
        ctx.fmap_idx = 0;
        ctx.blk_idx = static_cast<u32>(position);
        return engine.positional_mac(blk, ctx);
    };

    // SUM_MAC over the honest layout (Alg. 2 l.1).
    Xor_mac_accumulator honest;
    for (std::size_t i = 0; i < layer_blocks.size(); ++i) honest.fold(block_mac(layer_blocks[i], i));

    // SHUFFLE_ORDER (Alg. 2 l.2): a non-identity permutation of the blocks.
    std::vector<std::size_t> perm(layer_blocks.size());
    std::iota(perm.begin(), perm.end(), 0);
    do {
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.next_below(i)]);
    } while (std::is_sorted(perm.begin(), perm.end()));

    // SUM_MAC_shuffle (Alg. 2 l.3): block j now sits at position i, so the
    // verifier MACs block perm[i] with position-i metadata.
    Xor_mac_accumulator shuffled;
    for (std::size_t i = 0; i < perm.size(); ++i) shuffled.fold(block_mac(layer_blocks[perm[i]], i));

    Repa_result result;
    result.verification_passed = shuffled.value() == honest.value();
    result.data_intact = std::is_sorted(perm.begin(), perm.end());
    return result;
}

void splice_unit(core::Secure_memory& dst, Addr dst_addr, const core::Secure_memory& src,
                 Addr src_addr)
{
    dst.rollback(dst_addr, src.snapshot(src_addr));
}

void Rollback_capsule::capture(const core::Secure_memory& mem, Addr addr)
{
    unit_ = mem.snapshot(addr);
    addr_ = addr;
    armed_ = true;
}

void Rollback_capsule::replay(core::Secure_memory& mem) const
{
    require(armed_, "Rollback_capsule::replay: nothing captured");
    mem.rollback(addr_, unit_);
}

}  // namespace seda::crypto
