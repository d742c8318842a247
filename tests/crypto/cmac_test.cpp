// AES-CMAC unit MACs (crypto/mac.h): the RFC 4493 examples on every AES
// backend, the exact message and truncation the datapath stores, bulk calls
// equal to single calls (the wave) on every AES key size and unit size at
// counts around each gear's group and the 64-unit wave, on ragged lengths
// and under one flipped byte anywhere in a unit or its position fields,
// both aesni gears called directly, and the key-size rule.  AES kinds are
// enumerated at runtime; hardware kinds skip with a message when CPUID
// lacks the feature.
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
//
// On the aesni backend the bulk call takes the fused gear for equal
// whole-block batches and the wave otherwise; positional_mac always runs
// the wave, so it is the reference for both.

using CmacBulkTest = AesKindTest;

/// Position fields for unit i with every field's top byte set (pa and vn
/// >= 2^56; layer, fmap and blk >= 2^24), so a byte-order slip shows.
Mac_context high_context(std::size_t i)
{
    const auto small = static_cast<u32>(i);
    return {0xA5ULL << 56 | 4096 * i, 0xC3ULL << 56 | (i + 1), 0x9Eu << 24 | small % 5,
            0xF1u << 24 | small % 3, 0x87u << 24 | small};
}

std::vector<Mac_request> requests_for(const std::vector<std::vector<u8>>& units)
{
    std::vector<Mac_request> reqs;
    for (std::size_t i = 0; i < units.size(); ++i) reqs.push_back({units[i], high_context(i)});
    return reqs;
}

void expect_bulk_equals_loop(const Cmac_engine& engine,
                             const std::vector<std::vector<u8>>& units, const char* what)
{
    const std::vector<Mac_request> reqs = requests_for(units);
    std::vector<u64> bulk(reqs.size());
    engine.positional_macs(reqs, bulk);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(bulk[i], engine.positional_mac(reqs[i].ciphertext, reqs[i].ctx))
            << what << ": unit " << i << " of " << units.size() << ", "
            << units[i].size() << " B";
}

/// Holds `bulk(engine, key, reqs, out)` to the wave (engine.positional_mac
/// unit by unit, `engine` keyed with `key`) on the first n units of a
/// 200-unit pool, for every n here, every unit size and every AES key size.
/// Each n straddles a group or wave boundary: 8 xmm chains (SSE gear), 16
/// ymm lanes (VAES gear) or the 64-unit wave.  0 B leaves only the position
/// blocks, 16 B is the smallest unit, 64 B the datapath's, 128-4096 B the
/// optBlk sizes of Table I.
template <typename Bulk>
void expect_matches_wave(Aes_backend_kind kind, Bulk&& bulk)
{
    constexpr std::size_t counts[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200};
    for (const std::size_t key_bytes : {16u, 24u, 32u}) {
        const auto key = random_bytes(key_bytes, 3);
        const Cmac_engine engine(key, kind);
        for (const std::size_t unit_bytes : {0u, 16u, 64u, 128u, 256u, 512u, 1024u, 4096u}) {
            std::vector<std::vector<u8>> units;
            for (std::size_t i = 0; i < 200; ++i)
                units.push_back(random_bytes(unit_bytes, 300 + i));
            const std::vector<Mac_request> pool = requests_for(units);
            std::vector<u64> want;
            for (const Mac_request& r : pool)
                want.push_back(engine.positional_mac(r.ciphertext, r.ctx));
            for (const std::size_t n : counts) {
                std::vector<u64> got(n);
                bulk(engine, key, std::span<const Mac_request>(pool).first(n),
                     std::span<u64>(got));
                EXPECT_EQ(got, std::vector<u64>(want.begin(),
                                                want.begin() + static_cast<std::ptrdiff_t>(n)))
                    << 8 * key_bytes << "-bit key, " << unit_bytes << " B units, n = " << n;
            }
        }
    }
}

TEST_P(CmacBulkTest, PositionalMacsEqualLoop)
{
    expect_matches_wave(GetParam(), [](const Cmac_engine& engine, std::span<const u8> /*key*/,
                                       std::span<const Mac_request> reqs, std::span<u64> out) {
        engine.positional_macs(reqs, out);
    });
}

TEST_P(CmacBulkTest, PositionalMacsEqualLoopOnRaggedLengths)
{
    // Ragged units drop out of later block positions, and the 28 B position
    // suffix decides where each unit's tail and padding fall.  200 units
    // span four waves.  A batch that is equal whole blocks but for one unit,
    // or equal but not whole blocks, must leave the aesni gear for the wave.
    const Cmac_engine engine(random_bytes(16, 2), GetParam());
    Rng rng(0x7A66ED);
    for (const std::size_t n : {24u, 200u}) {
        std::vector<std::vector<u8>> units;
        for (std::size_t i = 0; i < n; ++i)
            units.push_back(random_bytes(rng.next_u64() % 300, 200 + i));
        expect_bulk_equals_loop(engine, units, "ragged lengths");
    }
    for (const std::size_t odd_one : {5u, 16u}) {
        std::vector<std::vector<u8>> units;
        for (std::size_t i = 0; i < 17; ++i)
            units.push_back(random_bytes(i == odd_one ? 80 : 64, 500 + i));
        expect_bulk_equals_loop(engine, units, "one unit longer");
        units[odd_one].resize(48);
        expect_bulk_equals_loop(engine, units, "one unit shorter");
    }
    std::vector<std::vector<u8>> units;
    for (std::size_t i = 0; i < 20; ++i) units.push_back(random_bytes(100, 700 + i));
    expect_bulk_equals_loop(engine, units, "equal, not whole blocks");
}

TEST_P(CmacBulkTest, OneFlippedByteChangesOnlyItsUnitsTag)
{
    // 17 units: a full group of every gear plus a remainder of one.  The
    // victim sits in a full group (5) and alone in the remainder (16); each
    // flip, in any ciphertext block or any byte of any position field, must
    // move its tag and no other.
    const Cmac_engine engine(random_bytes(16, 8), GetParam());
    std::vector<std::vector<u8>> units;
    for (std::size_t i = 0; i < 17; ++i) units.push_back(random_bytes(64, 40 + i));
    std::vector<Mac_request> reqs = requests_for(units);
    std::vector<u64> clean(reqs.size()), got(reqs.size());
    engine.positional_macs(reqs, clean);
    for (const std::size_t victim : {5u, 16u}) {
        const auto expect_only_victim_moved = [&](const std::string& what) {
            engine.positional_macs(reqs, got);
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (i == victim)
                    EXPECT_NE(got[i], clean[i]) << what << " of unit " << victim;
                else
                    EXPECT_EQ(got[i], clean[i])
                        << what << " of unit " << victim << " moved unit " << i;
            }
        };
        for (std::size_t byte = 0; byte < units[victim].size(); ++byte) {
            units[victim][byte] ^= 0xFF;
            expect_only_victim_moved("ciphertext byte " + std::to_string(byte));
            units[victim][byte] ^= 0xFF;
        }
        Mac_context& ctx = reqs[victim].ctx;
        const Mac_context saved = ctx;
        for (int shift = 0; shift < 64; shift += 8) {
            ctx.pa ^= 0xFFULL << shift;
            expect_only_victim_moved("pa byte " + std::to_string(shift / 8));
            ctx = saved;
            ctx.vn ^= 0xFFULL << shift;
            expect_only_victim_moved("vn byte " + std::to_string(shift / 8));
            ctx = saved;
        }
        for (int shift = 0; shift < 32; shift += 8) {
            ctx.layer_id ^= 0xFFu << shift;
            expect_only_victim_moved("layer byte " + std::to_string(shift / 8));
            ctx = saved;
            ctx.fmap_idx ^= 0xFFu << shift;
            expect_only_victim_moved("fmap byte " + std::to_string(shift / 8));
            ctx = saved;
            ctx.blk_idx ^= 0xFFu << shift;
            expect_only_victim_moved("blk byte " + std::to_string(shift / 8));
            ctx = saved;
        }
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

// ---- the aesni gears, called directly ---------------------------------------
//
// Cmac_engine takes whichever gear CPUID picks; these reach both, so the SSE
// gear is covered on VAES hosts too.

/// RFC 4493 sec. 2.3: K2 = dbl(dbl(AES_K(0^128))).
Block16 cmac_k2(const Aes& aes)
{
    const auto dbl = [](const Block16& b) {
        Block16 out{};
        for (std::size_t i = 0; i + 1 < out.size(); ++i)
            out[i] = static_cast<u8>((b[i] << 1) | (b[i + 1] >> 7));
        out[15] = static_cast<u8>((b[15] << 1) ^ ((b[0] & 0x80) != 0 ? 0x87 : 0));
        return out;
    };
    return dbl(dbl(aes.encrypt_block(Block16{})));
}

class CmacBulkGearTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        if (!backend_available(Aes_backend_kind::aesni))
            GTEST_SKIP() << "aesni backend not available on this CPU/build";
    }

    using Gear = bool (*)(const Aes_key_schedule&, const Block16&, std::span<const Mac_request>,
                          std::span<u64>);
    static constexpr Gear k_gears[] = {&aesni_positional_cmacs, &aesni_positional_cmacs_sse};
};

TEST_F(CmacBulkGearTest, BothGearsMatchTheWave)
{
    ASSERT_EQ(cmac_k2(Aes(from_hex(k_rfc_key))), block_of("f7ddac306ae266ccf90bc11ee46d513b"));
    for (const Gear gear : k_gears)
        expect_matches_wave(Aes_backend_kind::aesni,
                            [gear](const Cmac_engine& /*engine*/, std::span<const u8> key,
                                   std::span<const Mac_request> reqs, std::span<u64> out) {
                                const Aes aes(key, Aes_backend_kind::aesni);
                                ASSERT_TRUE(gear(aes.schedule(), cmac_k2(aes), reqs, out));
                            });
}

TEST_F(CmacBulkGearTest, DeclinesBatchesThatAreNotEqualWholeBlocks)
{
    const Aes aes(random_bytes(16, 9), Aes_backend_kind::aesni);
    for (const std::vector<std::size_t>& lengths :
         {std::vector<std::size_t>{64, 64, 80}, {64, 48, 64}, {100, 100}, {8}}) {
        std::vector<std::vector<u8>> units;
        for (const std::size_t len : lengths) units.push_back(random_bytes(len, len));
        const std::vector<Mac_request> reqs = requests_for(units);
        for (const Gear gear : k_gears) {
            std::vector<u64> out(reqs.size(), 0x5EED);
            EXPECT_FALSE(gear(aes.schedule(), cmac_k2(aes), reqs, out));
            EXPECT_EQ(out, std::vector<u64>(reqs.size(), 0x5EED));
        }
    }
}

}  // namespace
}  // namespace seda::crypto
