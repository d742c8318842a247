// AES-CTR mode: NIST SP 800-38A conformance and the counter layout / OTP
// disciplines the paper builds on (Eq. 1 / Eq. 2).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/ctr.h"

namespace seda::crypto {
namespace {

std::vector<u8> from_hex(const std::string& hex)
{
    std::vector<u8> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<u8>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

TEST(Counter, LayoutIsPaConcatVn)
{
    const Block16 c = make_counter(0x0102030405060708ULL, 0x1112131415161718ULL);
    // Big-endian PA in bytes 0..7, VN in bytes 8..15 (PA || VN).
    EXPECT_EQ(c[0], 0x01);
    EXPECT_EQ(c[7], 0x08);
    EXPECT_EQ(c[8], 0x11);
    EXPECT_EQ(c[15], 0x18);
}

TEST(Counter, AddAffectsVnHalfOnly)
{
    const Block16 base = make_counter(0xAAAA, 5);
    const Block16 plus = counter_add(base, 3);
    EXPECT_EQ(plus, make_counter(0xAAAA, 8));
    // PA half untouched.
    for (int i = 0; i < 8; ++i) EXPECT_EQ(base[static_cast<std::size_t>(i)], plus[static_cast<std::size_t>(i)]);
}

TEST(Counter, AddWrapsVn)
{
    const Block16 base = make_counter(1, ~0ULL);
    const Block16 plus = counter_add(base, 1);
    EXPECT_EQ(plus, make_counter(1, 0));
}

// NIST SP 800-38A F.5.1 (AES-128-CTR).  The standard's 128-bit counter is
// our PA||VN split at the 64-bit boundary.
TEST(AesCtr, Sp80038aVector)
{
    const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    // Counter block f0f1f2f3f4f5f6f7 f8f9fafbfcfdfeff.
    const Addr pa = 0xf0f1f2f3f4f5f6f7ULL;
    const u64 vn = 0xf8f9fafbfcfdfeffULL;

    const auto plaintext = from_hex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    const auto expected = from_hex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee");

    Aes_ctr ctr(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    auto data = plaintext;
    ctr.crypt_standard(data, pa, vn);
    EXPECT_EQ(data, expected);
    (void)aes;
}

TEST(AesCtr, Sp80038aVectorAes192)
{
    // SP 800-38A F.5.3, first block.
    Aes_ctr ctr(from_hex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"));
    auto data = from_hex("6bc1bee22e409f96e93d7e117393172a");
    ctr.crypt_standard(data, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL);
    EXPECT_EQ(data, from_hex("1abc932417521ca24f2b0459fe7e6e0b"));
}

TEST(AesCtr, Sp80038aVectorAes256)
{
    // SP 800-38A F.5.5, first block.
    Aes_ctr ctr(from_hex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"));
    auto data = from_hex("6bc1bee22e409f96e93d7e117393172a");
    ctr.crypt_standard(data, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL);
    EXPECT_EQ(data, from_hex("601ec313775789a5b7a7f504bbf3d228"));
}

TEST(AesCtr, StandardCryptRoundtrip)
{
    Rng rng(21);
    std::vector<u8> key(16);
    for (auto& b : key) b = rng.next_byte();
    const Aes_ctr ctr(key);

    for (const std::size_t n : {1u, 15u, 16u, 17u, 64u, 100u, 512u}) {
        std::vector<u8> data(n);
        for (auto& b : data) b = rng.next_byte();
        const auto original = data;
        ctr.crypt_standard(data, 0x1000, 7);
        if (n > 4) {
            EXPECT_NE(data, original) << n;
        }
        ctr.crypt_standard(data, 0x1000, 7);
        EXPECT_EQ(data, original) << n;
    }
}

TEST(AesCtr, SharedOtpRepeatsPadAcrossSegments)
{
    std::vector<u8> key(16, 0x11);
    const Aes_ctr ctr(key);
    std::vector<u8> zeros(64, 0);
    ctr.crypt_shared_otp(zeros, 0x2000, 3);
    // Encrypting zeros exposes the pad; all four segments must be equal --
    // exactly the weakness SECA exploits.
    for (int seg = 1; seg < 4; ++seg)
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(zeros[static_cast<std::size_t>(16 * seg + i)],
                      zeros[static_cast<std::size_t>(i)]);
}

TEST(AesCtr, StandardModeUsesDistinctPads)
{
    std::vector<u8> key(16, 0x11);
    const Aes_ctr ctr(key);
    std::vector<u8> zeros(64, 0);
    ctr.crypt_standard(zeros, 0x2000, 3);
    Block16 seg0{};
    Block16 seg1{};
    std::copy_n(zeros.begin(), 16, seg0.begin());
    std::copy_n(zeros.begin() + 16, 16, seg1.begin());
    EXPECT_NE(seg0, seg1);
}

TEST(AesCtr, OtpMatchesManualEncryption)
{
    std::vector<u8> key(16, 0x3C);
    const Aes_ctr ctr(key);
    const Aes aes(key);
    EXPECT_EQ(ctr.otp(0xBEEF, 9), aes.encrypt_block(make_counter(0xBEEF, 9)));
}

TEST(AesCtr, DifferentVnGivesDifferentCiphertext)
{
    std::vector<u8> key(16, 0x77);
    const Aes_ctr ctr(key);
    std::vector<u8> a(32, 0xAB);
    std::vector<u8> b(32, 0xAB);
    ctr.crypt_standard(a, 0x100, 1);
    ctr.crypt_standard(b, 0x100, 2);
    EXPECT_NE(a, b);  // VN bump re-keys the pad: temporal uniqueness
}

TEST(AesCtr, DifferentPaGivesDifferentCiphertext)
{
    std::vector<u8> key(16, 0x77);
    const Aes_ctr ctr(key);
    std::vector<u8> a(32, 0xAB);
    std::vector<u8> b(32, 0xAB);
    ctr.crypt_standard(a, 0x100, 1);
    ctr.crypt_standard(b, 0x140, 1);
    EXPECT_NE(a, b);  // spatial uniqueness
}

}  // namespace
}  // namespace seda::crypto
