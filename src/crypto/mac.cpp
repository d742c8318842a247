#include "crypto/mac.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "common/bitutil.h"
#include "common/error.h"
#include "crypto/aes_backend.h"

namespace seda::crypto {
namespace {

constexpr std::size_t k_block = 16;   // AES / CMAC block size in bytes
constexpr std::size_t k_wave = 64;    // CBC chains advanced per bulk AES call
constexpr std::size_t k_fields = 28;  // serialized Mac_context
// A staged tail holds the head's remainder (< 16 B once fields follow), the
// position fields and the 0x80 pad: at most 15 + 28 + 1 bytes, so 3 blocks.
constexpr std::size_t k_tail = 3 * k_block;

/// One CMAC message of a wave: `head`, followed by the serialized `*ctx`
/// when there is one (the positional MAC), MACed as if concatenated.
/// Trivially constructible, so a wave's message array costs no stores
/// before it is filled.
struct Cmac_msg {
    const u8* head;
    std::size_t head_len;
    const Mac_context* ctx;
};

/// RFC 4493 sec. 2.3 doubling in GF(2^128): shift left one bit and fold
/// the carried-out bit back in as R_128 = 0x87.
Block16 dbl(const Block16& b)
{
    Block16 out{};
    for (std::size_t i = 0; i + 1 < k_block; ++i)
        out[i] = static_cast<u8>((b[i] << 1) | (b[i + 1] >> 7));
    out[k_block - 1] = static_cast<u8>((b[k_block - 1] << 1) ^ ((b[0] & 0x80) != 0 ? 0x87 : 0));
    return out;
}

/// Serializes the k_fields position bytes that follow the ciphertext.  The
/// aesni gear (crypto/aes_backend_aesni.cpp) builds the same bytes in
/// registers.
void put_fields(u8* p, const Mac_context& ctx)
{
    store_be64(p, ctx.pa);
    store_be64(p + 8, ctx.vn);
    store_be32(p + 16, ctx.layer_id);
    store_be32(p + 20, ctx.fmap_idx);
    store_be32(p + 24, ctx.blk_idx);
}

/// AES-CMAC of up to k_wave messages at once: tags[i] = CMAC(msgs[i]).  The
/// portable path: every MAC on the scalar and ttable backends, ragged
/// batches on any backend, mac() and the single-unit calls the tests hold
/// the aesni gear (aesni_positional_cmacs) against.
///
/// Each message is read as `direct` full blocks straight out of its head
/// plus a staged tail of 1-3 blocks (the head's remainder, the position
/// fields, the 10* pad and the K1/K2 fold of the final block).  The chains
/// are ordered longest first, so at every block position the live ones are
/// a prefix of `x` and one bulk AES call advances them all; equal-length
/// units, the protection-unit case, keep every call full.
void cmac_wave(const Aes& aes, const Block16& k1, const Block16& k2,
               std::span<const Cmac_msg> msgs, std::span<Block16> tags)
{
    const std::size_t n = msgs.size();
    std::array<std::array<u8, k_tail>, k_wave> tail;
    std::array<std::size_t, k_wave> direct;
    std::array<std::size_t, k_wave> blocks;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t head_len = msgs[i].head_len;
        const std::size_t len = head_len + (msgs[i].ctx != nullptr ? k_fields : 0);
        blocks[i] = std::max<std::size_t>(1, ceil_div(len, k_block));
        direct[i] = std::min(head_len / k_block, blocks[i] - 1);
        const std::size_t rem = head_len - direct[i] * k_block;

        u8* t = tail[i].data();
        std::memset(t, 0, k_tail);
        if (rem != 0) std::memcpy(t, msgs[i].head + direct[i] * k_block, rem);
        if (msgs[i].ctx != nullptr) put_fields(t + rem, *msgs[i].ctx);
        u8* last = t + (blocks[i] - direct[i] - 1) * k_block;
        if (len != 0 && len % k_block == 0) {
            xor_16_bytes(last, k1.data());
        } else {
            t[len - direct[i] * k_block] = 0x80;
            xor_16_bytes(last, k2.data());
        }
    }

    std::array<u8, k_wave> order;
    const auto first = order.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    const auto longer = [&](u8 a, u8 b) { return blocks[a] > blocks[b]; };
    std::iota(first, last, u8{0});
    if (!std::is_sorted(first, last, longer)) std::sort(first, last, longer);

    std::array<Block16, k_wave> x;
    std::fill_n(x.begin(), n, Block16{});
    std::size_t live = n;
    for (std::size_t b = 0;; ++b) {
        while (live != 0 && blocks[order[live - 1]] <= b) --live;
        if (live == 0) break;
        for (std::size_t k = 0; k < live; ++k) {
            const std::size_t i = order[k];
            const u8* m = b < direct[i] ? msgs[i].head + b * k_block
                                        : tail[i].data() + (b - direct[i]) * k_block;
            xor_16_bytes(x[k].data(), m);
        }
        aes.encrypt_blocks(std::span<Block16>(x.data(), live));
    }
    for (std::size_t k = 0; k < n; ++k) tags[order[k]] = x[k];
}

u64 truncate64(const Block16& tag) { return load_be64(tag.data()); }

}  // namespace

Cmac_engine::Cmac_engine(std::span<const u8> key, Aes_backend_kind kind)
    : aes_(key, kind), aesni_(aes_.backend_name() == "aesni")
{
    // RFC 4493 sec. 2.3: L = AES_K(0^128), K1 = dbl(L), K2 = dbl(K1).
    k1_ = dbl(aes_.encrypt_block(Block16{}));
    k2_ = dbl(k1_);
}

Block16 Cmac_engine::mac(std::span<const u8> message) const
{
    const Cmac_msg msg{message.data(), message.size(), nullptr};
    Block16 tag{};
    cmac_wave(aes_, k1_, k2_, {&msg, 1}, {&tag, 1});
    return tag;
}

u64 Cmac_engine::naive_mac(std::span<const u8> ciphertext) const
{
    return truncate64(mac(ciphertext));
}

u64 Cmac_engine::positional_mac(std::span<const u8> ciphertext, const Mac_context& ctx) const
{
    // MAC_Kh(blk || PA || VN || layer_id || fmap_idx || blk_idx), Alg. 2 l.8.
    const Cmac_msg msg{ciphertext.data(), ciphertext.size(), &ctx};
    Block16 tag{};
    cmac_wave(aes_, k1_, k2_, {&msg, 1}, {&tag, 1});
    return truncate64(tag);
}

void Cmac_engine::positional_macs(std::span<const Mac_request> reqs,
                                  std::span<u64> out) const
{
    require(reqs.size() == out.size(), "Cmac_engine::positional_macs: size mismatch");
    if (aesni_ && aesni_positional_cmacs(aes_.schedule(), k2_, reqs, out)) return;
    std::array<Cmac_msg, k_wave> msgs;
    std::array<Block16, k_wave> tags;
    for (std::size_t first = 0; first < reqs.size(); first += k_wave) {
        const std::size_t n = std::min(k_wave, reqs.size() - first);
        for (std::size_t i = 0; i < n; ++i) {
            const Mac_request& r = reqs[first + i];
            msgs[i] = {r.ciphertext.data(), r.ciphertext.size(), &r.ctx};
        }
        cmac_wave(aes_, k1_, k2_, {msgs.data(), n}, {tags.data(), n});
        for (std::size_t i = 0; i < n; ++i) out[first + i] = truncate64(tags[i]);
    }
}

u64 naive_block_mac(std::span<const u8> key, std::span<const u8> ciphertext)
{
    return Cmac_engine(key).naive_mac(ciphertext);
}

u64 positional_block_mac(std::span<const u8> key, std::span<const u8> ciphertext,
                         const Mac_context& ctx)
{
    return Cmac_engine(key).positional_mac(ciphertext, ctx);
}

u64 xor_fold(std::span<const u64> macs)
{
    u64 acc = 0;
    for (u64 m : macs) acc ^= m;
    return acc;
}

}  // namespace seda::crypto
