#include "crypto/ctr.h"

#include <algorithm>

#include "common/bitutil.h"

namespace seda::crypto {
namespace {

void xor_into(std::span<u8> dst, const Block16& pad)
{
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<u8>(dst[i] ^ pad[i]);
}

}  // namespace

Block16 make_counter(Addr pa, u64 vn)
{
    Block16 ctr{};
    store_be64(ctr.data(), pa);
    store_be64(ctr.data() + 8, vn);
    return ctr;
}

Block16 counter_add(const Block16& ctr, u64 inc)
{
    Block16 out = ctr;
    store_be64(out.data() + 8, load_be64(ctr.data() + 8) + inc);
    return out;
}

void Aes_ctr::crypt_standard(std::span<u8> data, Addr pa, u64 vn) const
{
    const Block16 base = make_counter(pa, vn);
    u64 seg = 0;
    while (!data.empty()) {
        const Block16 pad = aes_.encrypt_block(counter_add(base, seg));
        const std::size_t n = std::min<std::size_t>(data.size(), pad.size());
        xor_into(data.first(n), pad);
        data = data.subspan(n);
        ++seg;
    }
}

void Aes_ctr::crypt_shared_otp(std::span<u8> data, Addr pa, u64 vn) const
{
    const Block16 pad = otp(pa, vn);
    while (!data.empty()) {
        const std::size_t n = std::min<std::size_t>(data.size(), pad.size());
        xor_into(data.first(n), pad);
        data = data.subspan(n);
    }
}

}  // namespace seda::crypto
