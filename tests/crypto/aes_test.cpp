// FIPS-197 conformance and structural properties of the AES implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/aes.h"

namespace seda::crypto {
namespace {

std::vector<u8> from_hex(const std::string& hex)
{
    std::vector<u8> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<u8>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

Block16 block_from_hex(const std::string& hex)
{
    const auto v = from_hex(hex);
    Block16 b{};
    std::copy(v.begin(), v.end(), b.begin());
    return b;
}

// --- S-box -----------------------------------------------------------------

TEST(AesSbox, KnownValues)
{
    // Anchor values from the FIPS-197 S-box table.
    EXPECT_EQ(aes_sbox_value(0x00), 0x63);
    EXPECT_EQ(aes_sbox_value(0x01), 0x7C);
    EXPECT_EQ(aes_sbox_value(0x53), 0xED);
    EXPECT_EQ(aes_sbox_value(0xFF), 0x16);
    EXPECT_EQ(aes_sbox_value(0x10), 0xCA);
}

TEST(AesSbox, IsBijective)
{
    std::array<bool, 256> seen{};
    for (int i = 0; i < 256; ++i) seen[aes_sbox_value(static_cast<u8>(i))] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(GfMul, FieldProperties)
{
    // 1 is the multiplicative identity; multiplication is commutative.
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const u8 a = rng.next_byte();
        const u8 b = rng.next_byte();
        EXPECT_EQ(gf_mul(a, 1), a);
        EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    }
    // Known product from FIPS-197 sec. 4.2: {57} x {83} = {c1}.
    EXPECT_EQ(gf_mul(0x57, 0x83), 0xC1);
    // xtime chain: {57} x {13} = {fe}.
    EXPECT_EQ(gf_mul(0x57, 0x13), 0xFE);
}

// --- FIPS-197 appendix C vectors --------------------------------------------

struct Fips_vector {
    const char* key;
    const char* plaintext;
    const char* ciphertext;
};

// Names each case by its key size (4 bits per hex digit) rather than by the
// pointer bytes gtest would print, so test names are stable across builds.
void PrintTo(const Fips_vector& v, std::ostream* os)
{
    *os << "AES-" << std::strlen(v.key) * 4;
}

class AesFipsTest : public ::testing::TestWithParam<Fips_vector> {};

TEST_P(AesFipsTest, EncryptMatchesVector)
{
    const auto& v = GetParam();
    const Aes aes(from_hex(v.key));
    EXPECT_EQ(aes.encrypt_block(block_from_hex(v.plaintext)), block_from_hex(v.ciphertext));
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesFipsTest,
    ::testing::Values(
        Fips_vector{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
                    "69c4e0d86a7b0430d8cdb78070b4c55a"},
        Fips_vector{"000102030405060708090a0b0c0d0e0f1011121314151617",
                    "00112233445566778899aabbccddeeff",
                    "dda97ca4864cdfe06eaf70a0ec0d7191"},
        Fips_vector{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                    "00112233445566778899aabbccddeeff",
                    "8ea2b7ca516745bfeafc49904b496089"}));

// --- structural properties ---------------------------------------------------

class AesKeySizeTest : public ::testing::TestWithParam<int> {};

TEST_P(AesKeySizeTest, RoundKeyCountMatchesRounds)
{
    std::vector<u8> key(static_cast<std::size_t>(GetParam()), 0x42);
    const Aes aes(key);
    EXPECT_EQ(aes.round_keys().size(), static_cast<std::size_t>(aes.rounds()) + 1);
    const int expected_rounds = GetParam() == 16 ? 10 : GetParam() == 24 ? 12 : 14;
    EXPECT_EQ(aes.rounds(), expected_rounds);
}

TEST_P(AesKeySizeTest, RoundKeysAreDistinct)
{
    // A random key: a repeated-byte AES-256 key would make rk0 == rk1 by
    // construction (they are the two key halves).
    Rng rng(0xD15);
    std::vector<u8> key(static_cast<std::size_t>(GetParam()));
    for (auto& b : key) b = rng.next_byte();
    const Aes aes(key);
    const auto rks = aes.round_keys();
    for (std::size_t i = 0; i < rks.size(); ++i)
        for (std::size_t j = i + 1; j < rks.size(); ++j) EXPECT_NE(rks[i], rks[j]);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesKeySizeTest, ::testing::Values(16, 24, 32));

TEST(Aes, FirstRoundKeyIsTheKey)
{
    std::vector<u8> key(16);
    std::iota(key.begin(), key.end(), u8{0});
    const Aes aes(key);
    const auto rk0 = aes.round_keys()[0];
    EXPECT_TRUE(std::equal(key.begin(), key.end(), rk0.begin()));
}

TEST(Aes, RejectsBadKeySizes)
{
    for (const std::size_t n : {0u, 1u, 15u, 17u, 31u, 33u, 64u}) {
        std::vector<u8> key(n, 0);
        EXPECT_THROW(Aes{key}, Seda_error) << "key size " << n;
    }
}

TEST(Aes, AvalancheOnPlaintextBit)
{
    std::vector<u8> key(16, 0x5A);
    const Aes aes(key);
    Block16 p{};
    const Block16 c0 = aes.encrypt_block(p);
    p[0] ^= 0x01;
    const Block16 c1 = aes.encrypt_block(p);
    int diff_bits = 0;
    for (std::size_t i = 0; i < c0.size(); ++i)
        diff_bits += std::popcount(static_cast<unsigned>(c0[i] ^ c1[i]));
    // A single flipped input bit should flip roughly half the output bits.
    EXPECT_GT(diff_bits, 40);
    EXPECT_LT(diff_bits, 90);
}

TEST(XorBlocks, IsSelfInverse)
{
    Rng rng(9);
    Block16 a{};
    Block16 b{};
    for (auto& x : a) x = rng.next_byte();
    for (auto& x : b) x = rng.next_byte();
    EXPECT_EQ(xor_blocks(xor_blocks(a, b), b), a);
    EXPECT_EQ(xor_blocks(a, a), Block16{});
}

}  // namespace
}  // namespace seda::crypto
