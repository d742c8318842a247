// AES-CMAC unit MACs (crypto/mac.h): the RFC 4493 examples on every AES
// backend, the exact message and truncation the datapath stores, bulk calls
// equal to single calls around the 64-unit wave boundary and on ragged
// lengths, and the key-size rule.  AES kinds are enumerated at runtime;
// hardware kinds skip with a message when CPUID lacks the feature.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/aes_backend.h"
#include "crypto/mac.h"
#include "crypto/sha256.h"

namespace seda::crypto {
namespace {

std::vector<u8> from_hex(std::string_view hex)
{
    std::vector<u8> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<u8>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
    return out;
}

Block16 block_of(std::string_view hex)
{
    const auto bytes = from_hex(hex);
    Block16 b{};
    std::copy(bytes.begin(), bytes.end(), b.begin());
    return b;
}

std::vector<u8> random_bytes(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> out(n);
    for (auto& b : out) b = rng.next_byte();
    return out;
}

// RFC 4493 sec. 4: one AES-128 key, four prefixes of one 64-byte message.
constexpr std::string_view k_rfc_key = "2b7e151628aed2a6abf7158809cf4f3c";
constexpr std::string_view k_rfc_message =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";

class AesKindTest : public ::testing::TestWithParam<Aes_backend_kind> {
protected:
    void SetUp() override
    {
        if (!backend_available(GetParam()))
            GTEST_SKIP() << to_string(GetParam()) << " backend not available on this CPU/build";
    }
};

using CmacVectorTest = AesKindTest;

TEST_P(CmacVectorTest, MatchesRfc4493Examples)
{
    const Cmac_engine engine(from_hex(k_rfc_key), GetParam());
    const auto message = from_hex(k_rfc_message);
    const struct {
        std::size_t len;
        std::string_view tag;
    } examples[] = {
        {0, "bb1d6929e95937287fa37d129b756746"},
        {16, "070a16b46b4d4144f79bdd9dd04a287c"},
        {40, "dfa66747de9ae63030ca32611497c827"},
        {64, "51f0bebf7e3b9d92fc49741779363cfe"},
    };
    for (const auto& ex : examples)
        EXPECT_EQ(to_hex(engine.mac(std::span<const u8>(message).first(ex.len))), ex.tag)
            << "Mlen " << ex.len;
}

TEST_P(CmacVectorTest, SubkeysMatchRfc4493)
{
    // The subkeys are private; a one-block message pins each through the
    // cipher: a complete block is folded with K1, a padded one with K2.
    const auto key = from_hex(k_rfc_key);
    const Cmac_engine engine(key, GetParam());
    const Aes aes(key, GetParam());
    EXPECT_EQ(to_hex(aes.encrypt_block(Block16{})), "7df76b0c1ab899b33e42f047b91b546f");

    const Block16 k1 = block_of("fbeed618357133667c85e08f7236a8de");
    const Block16 k2 = block_of("f7ddac306ae266ccf90bc11ee46d513b");
    const Block16 m = block_of(k_rfc_message.substr(0, 32));
    EXPECT_EQ(engine.mac(m), aes.encrypt_block(xor_blocks(m, k1)));
    Block16 padded{};
    padded[0] = 0x80;
    EXPECT_EQ(engine.mac({}), aes.encrypt_block(xor_blocks(padded, k2)));
}

INSTANTIATE_TEST_SUITE_P(Kinds, CmacVectorTest,
                         ::testing::ValuesIn(all_backend_kinds().begin(),
                                             all_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

TEST(Cmac, TagIsTheFirstEightBytesOfTheCmacOverCiphertextAndPosition)
{
    const auto key = random_bytes(16, 1);
    const Cmac_engine engine(key);
    const auto ct = random_bytes(64, 2);
    const Mac_context ctx{0x123456789A, 0xBEEF, 3, 4, 5};

    std::vector<u8> message = ct;
    message.resize(64 + 28);
    store_be64(message.data() + 64, ctx.pa);
    store_be64(message.data() + 72, ctx.vn);
    store_be32(message.data() + 80, ctx.layer_id);
    store_be32(message.data() + 84, ctx.fmap_idx);
    store_be32(message.data() + 88, ctx.blk_idx);
    EXPECT_EQ(engine.positional_mac(ct, ctx), load_be64(engine.mac(message).data()));
    EXPECT_EQ(engine.naive_mac(ct), load_be64(engine.mac(ct).data()));
    EXPECT_EQ(positional_block_mac(key, ct, ctx), engine.positional_mac(ct, ctx));
    EXPECT_EQ(naive_block_mac(key, ct), engine.naive_mac(ct));
}

TEST(Cmac, SwappingTwoBlocksInsideAUnitChangesTheTag)
{
    const Cmac_engine engine(random_bytes(16, 3));
    const auto unit = random_bytes(64, 4);
    auto swapped = unit;
    std::swap_ranges(swapped.begin(), swapped.begin() + 16, swapped.begin() + 32);
    const Mac_context ctx{0x4000, 1, 2, 0, 7};
    EXPECT_NE(engine.positional_mac(swapped, ctx), engine.positional_mac(unit, ctx));
    EXPECT_NE(engine.naive_mac(swapped), engine.naive_mac(unit));
}

TEST(Cmac, KeysAreAesKeySizes)
{
    const auto unit = random_bytes(64, 5);
    std::vector<u64> tags;
    for (const std::size_t bytes : {16u, 24u, 32u})
        tags.push_back(Cmac_engine(random_bytes(bytes, 6)).naive_mac(unit));
    EXPECT_NE(tags[0], tags[1]);
    EXPECT_NE(tags[1], tags[2]);
    for (const std::size_t bytes : {0u, 8u, 20u, 33u, 64u})
        EXPECT_THROW(Cmac_engine(random_bytes(bytes, 7)), Seda_error) << bytes << " B key";
}

// ---- bulk CMAC ≡ loop of single MACs ---------------------------------------

using CmacBulkTest = AesKindTest;

void expect_bulk_equals_loop(const Cmac_engine& engine,
                             const std::vector<std::vector<u8>>& units, const char* what)
{
    std::vector<Mac_request> reqs;
    for (std::size_t i = 0; i < units.size(); ++i)
        reqs.push_back({units[i], Mac_context{0x1000 + 4096 * i, i + 1, static_cast<u32>(i % 5),
                                              static_cast<u32>(i % 3), static_cast<u32>(i)}});
    std::vector<u64> bulk(reqs.size());
    engine.positional_macs(reqs, bulk);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(bulk[i], engine.positional_mac(reqs[i].ciphertext, reqs[i].ctx))
            << what << ": unit " << i << " of " << units.size() << ", "
            << units[i].size() << " B";
}

TEST_P(CmacBulkTest, PositionalMacsEqualLoop)
{
    // 64 B is the unit-MAC baseline and 128-4096 B the optBlk sizes of
    // Table I; the counts straddle the 64-unit wave.
    const Cmac_engine engine(random_bytes(16, 3), GetParam());
    for (const std::size_t unit_bytes : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
        std::vector<std::vector<u8>> units;
        for (std::size_t i = 0; i < 21; ++i) units.push_back(random_bytes(unit_bytes, 300 + i));
        expect_bulk_equals_loop(engine, units, "equal lengths");
    }
    for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
        std::vector<std::vector<u8>> units;
        for (std::size_t i = 0; i < n; ++i) units.push_back(random_bytes(64, 900 + i));
        expect_bulk_equals_loop(engine, units, "64 B units");
    }
}

TEST_P(CmacBulkTest, PositionalMacsEqualLoopOnRaggedLengths)
{
    // Ragged units drop out of later block positions, and the 28 B position
    // suffix decides where each unit's tail and padding fall.  200 units
    // span four waves.
    const Cmac_engine engine(random_bytes(16, 2), GetParam());
    Rng rng(0x7A66ED);
    for (const std::size_t n : {24u, 200u}) {
        std::vector<std::vector<u8>> units;
        for (std::size_t i = 0; i < n; ++i)
            units.push_back(random_bytes(rng.next_u64() % 300, 200 + i));
        expect_bulk_equals_loop(engine, units, "ragged lengths");
    }
}

TEST_P(CmacBulkTest, EmptyBatchIsANoop)
{
    const Cmac_engine engine(random_bytes(16, 4), GetParam());
    engine.positional_macs({}, {});
    std::vector<u64> one(1);
    EXPECT_THROW(engine.positional_macs({}, one), Seda_error);
}

TEST_P(CmacBulkTest, BackendsProduceIdenticalMacs)
{
    // The MAC must not depend on which backend computed it -- Secure_memory
    // state written under one backend must verify under any other.
    const auto key = random_bytes(16, 5);
    const Cmac_engine reference(key, Aes_backend_kind::scalar);
    const Cmac_engine other(key, GetParam());
    const auto unit = random_bytes(64, 6);
    const Mac_context ctx{0x2000, 9, 1, 2, 3};
    EXPECT_EQ(reference.positional_mac(unit, ctx), other.positional_mac(unit, ctx));
    EXPECT_EQ(reference.mac(unit), other.mac(unit));

    std::vector<std::vector<u8>> units;
    std::vector<Mac_request> reqs;
    for (std::size_t i = 0; i < 70; ++i) units.push_back(random_bytes(64 + 16 * (i % 3), i));
    for (std::size_t i = 0; i < units.size(); ++i)
        reqs.push_back({units[i], Mac_context{64 * i, i, 0, 0, static_cast<u32>(i)}});
    std::vector<u64> want(reqs.size()), got(reqs.size());
    reference.positional_macs(reqs, want);
    other.positional_macs(reqs, got);
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CmacBulkTest,
                         ::testing::ValuesIn(all_backend_kinds().begin(),
                                             all_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace seda::crypto
