#include "crypto/aes.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/error.h"
#include "crypto/aes_backend.h"

namespace seda::crypto {
namespace {

constexpr auto k_sbox = make_aes_sbox();

}  // namespace

std::size_t expand_round_keys(std::span<const u8> key, Round_key_bank& out)
{
    // AES-128 (the only key size on the stack's hot paths) expands through
    // aeskeygenassist when available; 192/256-bit keys and hardware-less
    // hosts take the portable path.  Bit-identical either way, which
    // tests/crypto/aes_backend_test.cpp asserts.
    if (aesni_expand_round_keys128(key, out)) return 11;  // AES-128: 10 rounds + the key
    return expand_round_keys_portable(key, out);
}

std::size_t expand_round_keys_portable(std::span<const u8> key, Round_key_bank& out)
{
    int nk = 0;  // key length in 32-bit words
    int rounds = 0;
    switch (key.size()) {
        case 16: nk = 4; rounds = 10; break;
        case 24: nk = 6; rounds = 12; break;
        case 32: nk = 8; rounds = 14; break;
        default:
            throw Seda_error("Aes: key must be 16, 24 or 32 bytes");
    }

    const int total_words = 4 * (rounds + 1);
    std::array<std::array<u8, 4>, 4 * k_max_round_keys> w{};
    for (int i = 0; i < nk; ++i)
        for (int b = 0; b < 4; ++b)
            w[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)] =
                key[static_cast<std::size_t>(4 * i + b)];

    u8 rcon = 0x01;
    for (int i = nk; i < total_words; ++i) {
        std::array<u8, 4> temp = w[static_cast<std::size_t>(i - 1)];
        if (i % nk == 0) {
            // RotWord then SubWord then Rcon.
            std::rotate(temp.begin(), temp.begin() + 1, temp.end());
            for (auto& b : temp) b = k_sbox[b];
            temp[0] = static_cast<u8>(temp[0] ^ rcon);
            rcon = gf_mul(rcon, 2);
        } else if (nk > 6 && i % nk == 4) {
            for (auto& b : temp) b = k_sbox[b];
        }
        for (int b = 0; b < 4; ++b)
            w[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)] = static_cast<u8>(
                w[static_cast<std::size_t>(i - nk)][static_cast<std::size_t>(b)] ^
                temp[static_cast<std::size_t>(b)]);
    }

    for (int r = 0; r <= rounds; ++r)
        for (int c = 0; c < 4; ++c)
            for (int b = 0; b < 4; ++b)
                out[static_cast<std::size_t>(r)][static_cast<std::size_t>(4 * c + b)] =
                    w[static_cast<std::size_t>(4 * r + c)][static_cast<std::size_t>(b)];
    return static_cast<std::size_t>(rounds + 1);
}

Aes::Aes(std::span<const u8> key, Aes_backend_kind kind)
    : backend_(&backend_for(kind))
{
    Round_key_bank bank;
    const std::size_t count = expand_round_keys(key, bank);
    schedule_.round_keys.assign(bank.begin(), bank.begin() + static_cast<std::ptrdiff_t>(count));
    schedule_.rounds = static_cast<int>(count) - 1;
    // The word form for the table-driven backend: the schedule verbatim.
    schedule_.enc_words.reserve(4 * count);
    for (const Block16& rk : schedule_.round_keys)
        for (int c = 0; c < 4; ++c) schedule_.enc_words.push_back(load_be32(rk.data() + 4 * c));
}

Block16 Aes::encrypt_block(const Block16& in) const
{
    Block16 s = in;
    backend_->encrypt_blocks(schedule_, std::span<Block16>(&s, 1));
    return s;
}

void Aes::encrypt_blocks(std::span<Block16> blocks) const
{
    backend_->encrypt_blocks(schedule_, blocks);
}

std::string_view Aes::backend_name() const { return backend_->name(); }

}  // namespace seda::crypto
