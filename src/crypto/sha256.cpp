#include "crypto/sha256.h"

#include <algorithm>

#include "common/bitutil.h"
#include "crypto/sha256_backend.h"

namespace seda::crypto {

Sha256::Sha256(Sha256_backend_kind kind) : backend_(&sha256_backend_for(kind)) { reset(); }

void Sha256::reset()
{
    h_ = sha256_initial_state();
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
            backend_->compress(h_, buf_.data(), 1);
            buf_len_ = 0;
        }
        // Everything fit in the (possibly still partial) buffer.
        if (data.empty()) return;
    }

    // Full blocks compress straight from the caller's buffer -- one backend
    // call for the whole run, no staging copy.
    const std::size_t full = data.size() / k_sha256_block_bytes;
    if (full != 0) {
        backend_->compress(h_, data.data(), full);
        data = data.subspan(full * k_sha256_block_bytes);
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
        backend_->compress(h_, buf_.data(), 1);
        buf_len_ = 0;
    }
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.begin() + 56, u8{0});
    store_be64(buf_.data() + 56, bit_len);
    backend_->compress(h_, buf_.data(), 1);

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
