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
