#include "crypto/sha256.h"

#include <algorithm>

#include "common/bitutil.h"

namespace seda::crypto {
namespace {

constexpr std::size_t k_block_bytes = 64;  // FIPS 180-4 sec. 5.2.1

// Initial hash value H(0): the first 32 bits of the fractional parts of the
// square roots of the first eight primes (FIPS 180-4 sec. 5.3.3).
constexpr std::array<u32, 8> k_h0 = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// First 32 bits of the fractional parts of the cube roots of the first 64
// primes (FIPS 180-4 sec. 4.2.2).
constexpr std::array<u32, 64> k_k = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// The FIPS logical functions (sec. 4.1.2).
constexpr u32 rotr(u32 x, int s) { return (x >> s) | (x << (32 - s)); }
constexpr u32 big_sigma0(u32 x) { return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22); }
constexpr u32 big_sigma1(u32 x) { return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25); }
constexpr u32 small_sigma0(u32 x) { return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3); }
constexpr u32 small_sigma1(u32 x) { return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10); }
constexpr u32 ch(u32 x, u32 y, u32 z) { return (x & y) ^ (~x & z); }
constexpr u32 maj(u32 x, u32 y, u32 z) { return (x & y) ^ (x & z) ^ (y & z); }

/// Compresses the `nblocks` consecutive 64-byte blocks at `p` into `state`.
/// Loop form mirroring the FIPS 180-4 pseudocode: the full 64-entry message
/// schedule is materialized, one round per iteration.
void compress(std::array<u32, 8>& state, const u8* p, std::size_t nblocks)
{
    for (; nblocks != 0; --nblocks, p += k_block_bytes) {
        std::array<u32, 64> w{};
        for (int t = 0; t < 16; ++t) w[static_cast<std::size_t>(t)] = load_be32(p + 4 * t);
        for (int t = 16; t < 64; ++t)
            w[static_cast<std::size_t>(t)] = small_sigma1(w[static_cast<std::size_t>(t - 2)]) +
                                             w[static_cast<std::size_t>(t - 7)] +
                                             small_sigma0(w[static_cast<std::size_t>(t - 15)]) +
                                             w[static_cast<std::size_t>(t - 16)];

        u32 a = state[0], b = state[1], c = state[2], d = state[3];
        u32 e = state[4], f = state[5], g = state[6], h = state[7];
        for (int t = 0; t < 64; ++t) {
            const u32 t1 = h + big_sigma1(e) + ch(e, f, g) + k_k[static_cast<std::size_t>(t)] +
                           w[static_cast<std::size_t>(t)];
            const u32 t2 = big_sigma0(a) + maj(a, b, c);
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

}  // namespace

void Sha256::reset()
{
    h_ = k_h0;
    buf_len_ = 0;
    total_len_ = 0;
}

void Sha256::update(std::span<const u8> data)
{
    total_len_ += data.size();

    // Top up a partially filled buffer first.
    if (buf_len_ != 0) {
        const std::size_t take = std::min<std::size_t>(data.size(), buf_.size() - buf_len_);
        std::copy_n(data.begin(), take, buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_));
        buf_len_ += take;
        data = data.subspan(take);
        if (buf_len_ == buf_.size()) {
            compress(h_, buf_.data(), 1);
            buf_len_ = 0;
        }
        // Everything fit in the (possibly still partial) buffer.
        if (data.empty()) return;
    }

    // Full blocks compress straight from the caller's buffer, no staging copy.
    const std::size_t full = data.size() / k_block_bytes;
    if (full != 0) {
        compress(h_, data.data(), full);
        data = data.subspan(full * k_block_bytes);
    }

    std::copy_n(data.begin(), data.size(), buf_.begin());
    buf_len_ = data.size();
}

Digest256 Sha256::finish()
{
    const u64 bit_len = total_len_ * 8;

    // Merkle-Damgard padding: 0x80, zeros to 56 mod 64, 64-bit bit length.
    buf_[buf_len_++] = 0x80;
    if (buf_len_ > 56) {
        std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end(), u8{0});
        compress(h_, buf_.data(), 1);
        buf_len_ = 0;
    }
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.begin() + 56, u8{0});
    store_be64(buf_.data() + 56, bit_len);
    compress(h_, buf_.data(), 1);

    Digest256 out{};
    for (int i = 0; i < 8; ++i)
        store_be32(out.data() + 4 * i, h_[static_cast<std::size_t>(i)]);
    reset();
    return out;
}

Digest256 sha256(std::span<const u8> data)
{
    Sha256 h;
    h.update(data);
    return h.finish();
}

std::string to_hex(std::span<const u8> bytes)
{
    static constexpr char digits[] = "0123456789abcdef";
    std::string s;
    s.reserve(bytes.size() * 2);
    for (u8 b : bytes) {
        s.push_back(digits[b >> 4]);
        s.push_back(digits[b & 0xF]);
    }
    return s;
}

}  // namespace seda::crypto
