// HMAC-SHA256 (RFC 4231 vectors), the 64-bit block MACs and XOR-MAC folding.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/mac.h"

namespace seda::crypto {
namespace {

std::vector<u8> from_hex(const std::string& hex)
{
    std::vector<u8> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<u8>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

struct Hmac_vector {
    int rfc_case;  // test case number in RFC 4231 section 4
    const char* key_hex;
    const char* data_hex;
    const char* mac_hex;
};

// Names each case by its RFC number rather than by the pointer bytes gtest would
// print, so test names are stable across builds.
void PrintTo(const Hmac_vector& v, std::ostream* os)
{
    *os << "case " << v.rfc_case;
}

class HmacVectorTest : public ::testing::TestWithParam<Hmac_vector> {};

TEST_P(HmacVectorTest, MatchesRfc4231)
{
    const auto& v = GetParam();
    const auto mac = hmac_sha256(from_hex(v.key_hex), from_hex(v.data_hex));
    EXPECT_EQ(to_hex(mac), v.mac_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4231, HmacVectorTest,
    ::testing::Values(
        // Case 1: key = 20 x 0x0b, data = "Hi There".
        Hmac_vector{1, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "4869205468657265",
                    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        // Case 2: key = "Jefe", data = "what do ya want for nothing?".
        Hmac_vector{2, "4a656665",
                    "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
                    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        // Case 3: key = 20 x 0xaa, data = 50 x 0xdd.
        Hmac_vector{3, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                    "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
                    "dddddddddddddddddddddddddddddddddddd",
                    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        // Case 6: 131-byte key (hashed first), data = "Test Using Larger..."
        Hmac_vector{6,
                    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                    "aaaaaa",
                    "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a"
                    "65204b6579202d2048617368204b6579204669727374",
                    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"}));

TEST(Mac64, NaiveAndPositionalDiffer)
{
    const std::vector<u8> key(16, 0x10);
    const std::vector<u8> block(64, 0x42);
    const Mac_context ctx{0x1000, 1, 2, 3, 4};
    EXPECT_NE(naive_block_mac(key, block), positional_block_mac(key, block, ctx));
}

TEST(Mac64, PositionalBindsEveryContextField)
{
    const std::vector<u8> key(16, 0x10);
    const std::vector<u8> block(64, 0x42);
    const Mac_context base{0x1000, 7, 2, 3, 4};
    const u64 m0 = positional_block_mac(key, block, base);

    Mac_context c = base;
    c.pa += 64;
    EXPECT_NE(positional_block_mac(key, block, c), m0) << "pa";
    c = base;
    c.vn += 1;
    EXPECT_NE(positional_block_mac(key, block, c), m0) << "vn";
    c = base;
    c.layer_id += 1;
    EXPECT_NE(positional_block_mac(key, block, c), m0) << "layer";
    c = base;
    c.fmap_idx += 1;
    EXPECT_NE(positional_block_mac(key, block, c), m0) << "fmap";
    c = base;
    c.blk_idx += 1;
    EXPECT_NE(positional_block_mac(key, block, c), m0) << "blk";
}

TEST(Mac64, SensitiveToCiphertext)
{
    const std::vector<u8> key(16, 0x10);
    std::vector<u8> block(64, 0x42);
    const Mac_context ctx{0x1000, 1, 2, 3, 4};
    const u64 m0 = positional_block_mac(key, block, ctx);
    block[63] ^= 0x01;
    EXPECT_NE(positional_block_mac(key, block, ctx), m0);
}

TEST(Mac64, KeyedMacsDiffer)
{
    const std::vector<u8> k1(16, 0x10);
    const std::vector<u8> k2(16, 0x11);
    const std::vector<u8> block(64, 0x42);
    EXPECT_NE(naive_block_mac(k1, block), naive_block_mac(k2, block));
}

TEST(XorMac, FoldIsOrderInvariant)
{
    // This very property is what RePA exploits -- asserted here explicitly,
    // and defended against by the positional MAC (see attacks_test.cpp).
    Rng rng(4);
    std::vector<u64> macs(16);
    for (auto& m : macs) m = rng.next_u64();

    Xor_mac_accumulator forward;
    for (u64 m : macs) forward.fold(m);
    Xor_mac_accumulator backward;
    for (auto it = macs.rbegin(); it != macs.rend(); ++it) backward.fold(*it);
    EXPECT_EQ(forward.value(), backward.value());
    EXPECT_EQ(forward.count(), backward.count());
}

TEST(XorMac, UnfoldRemovesABlock)
{
    Rng rng(8);
    std::vector<u64> macs(8);
    for (auto& m : macs) m = rng.next_u64();

    Xor_mac_accumulator acc;
    for (u64 m : macs) acc.fold(m);
    // Incremental update: replace block 3.
    const u64 new_mac = rng.next_u64();
    acc.unfold(macs[3]);
    acc.fold(new_mac);

    Xor_mac_accumulator expect;
    for (std::size_t i = 0; i < macs.size(); ++i) expect.fold(i == 3 ? new_mac : macs[i]);
    EXPECT_EQ(acc.value(), expect.value());
}

TEST(XorMac, FoldHelperMatchesAccumulator)
{
    Rng rng(15);
    std::vector<u64> macs(32);
    for (auto& m : macs) m = rng.next_u64();
    Xor_mac_accumulator acc;
    for (u64 m : macs) acc.fold(m);
    EXPECT_EQ(xor_fold(macs), acc.value());
}

TEST(XorMac, EmptyFoldIsZero)
{
    EXPECT_EQ(xor_fold({}), 0u);
    Xor_mac_accumulator acc;
    EXPECT_EQ(acc.value(), 0u);
    EXPECT_EQ(acc.count(), 0u);
}

TEST(XorMac, ResetClears)
{
    Xor_mac_accumulator acc;
    acc.fold(0x1234);
    acc.reset();
    EXPECT_EQ(acc.value(), 0u);
    EXPECT_EQ(acc.count(), 0u);
}

}  // namespace
}  // namespace seda::crypto
