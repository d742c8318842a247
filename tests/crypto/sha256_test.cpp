// FIPS 180-4 conformance of the from-scratch SHA-256.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"

namespace seda::crypto {
namespace {

std::vector<u8> bytes_of(const std::string& s)
{
    return {s.begin(), s.end()};
}

struct Sha_vector {
    const char* message;
    const char* digest_hex;
};

// Names each case by its message length rather than by the pointer bytes gtest
// would print, so test names are stable across builds.
void PrintTo(const Sha_vector& v, std::ostream* os)
{
    *os << std::strlen(v.message) << "-byte message";
}

class Sha256VectorTest : public ::testing::TestWithParam<Sha_vector> {};

TEST_P(Sha256VectorTest, MatchesFips)
{
    const auto& v = GetParam();
    EXPECT_EQ(to_hex(sha256(bytes_of(v.message))), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256VectorTest,
    ::testing::Values(
        Sha_vector{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        Sha_vector{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        Sha_vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        Sha_vector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                   "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                   "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"}));

TEST(Sha256, MillionAs)
{
    // FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
    Sha256 h;
    const std::vector<u8> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(to_hex(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

class Sha256ChunkTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256ChunkTest, IncrementalMatchesOneShot)
{
    Rng rng(0x5AA);
    std::vector<u8> data(1543);  // awkward non-aligned size
    for (auto& b : data) b = rng.next_byte();

    const auto oneshot = sha256(data);
    Sha256 h;
    std::span<const u8> rest = data;
    while (!rest.empty()) {
        const std::size_t take = std::min(rest.size(), GetParam());
        h.update(rest.first(take));
        rest = rest.subspan(take);
    }
    EXPECT_EQ(h.finish(), oneshot);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256ChunkTest,
                         ::testing::Values(1u, 7u, 55u, 56u, 63u, 64u, 65u, 512u));

TEST(Sha256, KnownAnswersAtPaddingBoundaries)
{
    // Byte i of each message is (31 * i + 7) mod 256.  The digests were
    // computed once with Python's hashlib, an implementation independent of
    // this one:
    //   bytes((31 * i + 7) & 0xFF for i in range(n)) -> hashlib.sha256
    // The lengths straddle the one- and two-block padding boundaries (55/56/57,
    // 63/64/65, 119/120), two whole blocks and one byte more (128/129) and a
    // long message.
    const struct {
        std::size_t length;
        const char* digest_hex;
    } answers[] = {
        {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
        {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
        {57, "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d"},
        {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
        {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
        {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
        {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
        {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
        {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
        {129, "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519"},
        {1000, "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179"},
    };
    for (const auto& a : answers) {
        std::vector<u8> data(a.length);
        for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(31 * i + 7);
        EXPECT_EQ(to_hex(sha256(data)), a.digest_hex) << "one-shot, length " << a.length;
        Sha256 h;  // byte at a time: every update goes through the partial buffer
        for (const u8 b : data) h.update({&b, 1});
        EXPECT_EQ(to_hex(h.finish()), a.digest_hex) << "byte-wise, length " << a.length;
    }
}

TEST(Sha256, ResetAllowsReuse)
{
    Sha256 h;
    h.update(bytes_of("abc"));
    const auto first = h.finish();  // finish() resets internally
    h.update(bytes_of("abc"));
    EXPECT_EQ(h.finish(), first);
}

TEST(Sha256, SensitiveToEveryBitFlip)
{
    Rng rng(77);
    std::vector<u8> data(64);
    for (auto& b : data) b = rng.next_byte();
    const auto base = sha256(data);
    for (const std::size_t byte : {0u, 31u, 63u}) {
        auto tampered = data;
        tampered[byte] ^= 0x80;
        EXPECT_NE(sha256(tampered), base) << "byte " << byte;
    }
}

TEST(ToHex, FormatsBytes)
{
    const std::vector<u8> v = {0x00, 0x0F, 0xAB, 0xFF};
    EXPECT_EQ(to_hex(v), "000fabff");
}

}  // namespace
}  // namespace seda::crypto
