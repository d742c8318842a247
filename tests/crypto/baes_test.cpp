// B-AES: SeDA's bandwidth-aware OTP fan-out (Fig. 3(a), Algorithm 1 defense).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/aes_backend.h"
#include "crypto/baes.h"

namespace seda::crypto {
namespace {

std::vector<u8> test_key()
{
    std::vector<u8> key(16);
    Rng rng(0xBAE5);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

TEST(Baes, NativeLaneCountIsRoundKeyCount)
{
    const Baes_engine baes(test_key());
    EXPECT_EQ(baes.native_lanes(), 11u);  // AES-128: 10 rounds + initial key
}

class BaesLaneTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BaesLaneTest, AllPadsDistinct)
{
    const Baes_engine baes(test_key());
    const auto pads = baes.otps(0x4000, 9, GetParam());
    ASSERT_EQ(pads.size(), GetParam());
    std::set<Block16> unique(pads.begin(), pads.end());
    EXPECT_EQ(unique.size(), pads.size());
}

TEST_P(BaesLaneTest, PadsAreDeterministic)
{
    const Baes_engine baes(test_key());
    EXPECT_EQ(baes.otps(0x4000, 9, GetParam()), baes.otps(0x4000, 9, GetParam()));
}

TEST_P(BaesLaneTest, PadsChangeWithVn)
{
    const Baes_engine baes(test_key());
    const auto a = baes.otps(0x4000, 9, GetParam());
    const auto b = baes.otps(0x4000, 10, GetParam());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]) << "lane " << i;
}

// 4 lanes = one 64 B unit; 32 lanes = 512 B unit; 40 exceeds the native
// round-key bank and exercises the extended keyExpansion path.
INSTANTIATE_TEST_SUITE_P(LaneCounts, BaesLaneTest, ::testing::Values(1u, 4u, 11u, 32u, 40u));

TEST(Baes, PadIsBaseOtpXorRoundKey)
{
    const auto key = test_key();
    const Baes_engine baes(key);
    const Aes_ctr ctr(key);
    const Block16 base = ctr.otp(0x8000, 3);
    const auto pads = baes.otps(0x8000, 3, 4);
    const auto rks = ctr.engine().round_keys();
    for (std::size_t i = 0; i < pads.size(); ++i)
        EXPECT_EQ(pads[i], xor_blocks(base, rks[i])) << "lane " << i;
}

TEST(Baes, CryptRoundtrip)
{
    const Baes_engine baes(test_key());
    Rng rng(5);
    for (const std::size_t n : {16u, 64u, 100u, 512u, 1024u}) {
        std::vector<u8> data(n);
        for (auto& b : data) b = rng.next_byte();
        const auto original = data;
        baes.crypt(data, 0xC000, 2);
        EXPECT_NE(data, original) << n;
        baes.crypt(data, 0xC000, 2);
        EXPECT_EQ(data, original) << n;
    }
}

TEST(Baes, SegmentsOfEqualPlaintextEncryptDifferently)
{
    // The whole point of the defense: equal plaintext segments within one
    // protected unit must not collide in ciphertext.
    const Baes_engine baes(test_key());
    std::vector<u8> zeros(512, 0);
    baes.crypt(zeros, 0xD000, 1);
    std::set<Block16> segments;
    for (std::size_t s = 0; s < zeros.size() / 16; ++s) {
        Block16 seg{};
        std::copy_n(zeros.begin() + static_cast<std::ptrdiff_t>(16 * s), 16, seg.begin());
        segments.insert(seg);
    }
    EXPECT_EQ(segments.size(), zeros.size() / 16);
}

TEST(Baes, OtpsManyMatchesScalarOtpLoop)
{
    const auto key = test_key();
    const Baes_engine baes(key);
    Rng rng(0x07B5);
    std::vector<Baes_engine::Otp_request> reqs;
    for (std::size_t i = 0; i < 97; ++i)  // odd count: no clean batch boundary
        reqs.push_back({rng.next_u64() & 0xFFFF'FFC0ULL, rng.next_below(1000)});
    std::vector<Block16> bases(reqs.size());
    baes.otps_many(reqs, bases);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(bases[i], baes.ctr().otp(reqs[i].pa, reqs[i].vn)) << "unit " << i;
}

TEST(Baes, CryptWithBaseMatchesCrypt)
{
    // The batch path -- every base OTP from one otps_many call, then the
    // XOR lanes per unit through one reused key scratch -- must equal
    // crypt() unit by unit.  64 B = the protected-unit case; 512 B exercises the
    // derived banks, and the 100 B unit after it shrinks the scratch again.
    const Baes_engine baes(test_key());
    Rng rng(0xC0DE);
    const std::vector<std::size_t> sizes = {64, 512, 100, 64};
    std::vector<Baes_engine::Otp_request> reqs;
    for (std::size_t i = 0; i < sizes.size(); ++i) reqs.push_back({0xE000 + 0x200 * i, 7 + i});
    std::vector<Block16> bases(reqs.size());
    baes.otps_many(reqs, bases);

    std::vector<Block16> key_scratch;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::vector<u8> via_crypt(sizes[i]);
        for (auto& b : via_crypt) b = rng.next_byte();
        std::vector<u8> via_base = via_crypt;
        baes.crypt(via_crypt, reqs[i].pa, reqs[i].vn);
        baes.crypt_with_base(via_base, reqs[i].pa, reqs[i].vn, bases[i], key_scratch);
        EXPECT_EQ(via_base, via_crypt) << "unit " << i << " of " << sizes[i] << " B";
    }
}

TEST(Baes, OtpsManySizeMismatchThrows)
{
    const Baes_engine baes(test_key());
    const std::vector<Baes_engine::Otp_request> reqs(3);
    std::vector<Block16> bases(2);
    EXPECT_THROW(baes.otps_many(reqs, bases), Seda_error);
}

TEST(Baes, ExtendedBankDiffersFromPrimary)
{
    const Baes_engine baes(test_key());
    // Lane 11+ comes from the re-keyed expansion (key xor (PA||VN) xor bank).
    const auto pads = baes.otps(0x1000, 1, 22);
    std::set<Block16> unique(pads.begin(), pads.end());
    EXPECT_EQ(unique.size(), 22u);
}

// ---- in-place lanes against the pads, on every backend and key size ---------

class BaesKindTest : public ::testing::TestWithParam<Aes_backend_kind> {
protected:
    void SetUp() override
    {
        if (!backend_available(GetParam()))
            GTEST_SKIP() << to_string(GetParam()) << " backend not available on this CPU/build";
    }
};

std::vector<u8> key_of(std::size_t bytes)
{
    std::vector<u8> key(bytes);
    Rng rng(0xBAE5 + bytes);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

TEST_P(BaesKindTest, CryptWithBaseEqualsTheOtpFanOut)
{
    // Units of up to rounds+1 segments (11/13/15 at AES-128/192/256) XOR
    // base ^ round key in place; wider ones gather derived banks.  The sizes
    // straddle that boundary -- 176 and 192 B at AES-128 -- and end in
    // partial segments too.
    for (const std::size_t key_bytes : {16u, 24u, 32u}) {
        const Baes_engine baes(key_of(key_bytes), GetParam());
        const std::size_t bank_bytes = 16 * baes.native_lanes();
        Rng rng(0xF00D);
        for (const std::size_t bytes :
             {std::size_t{1}, std::size_t{16}, std::size_t{64}, std::size_t{100}, bank_bytes - 16,
              bank_bytes - 5, bank_bytes, bank_bytes + 1, bank_bytes + 16, 2 * bank_bytes + 16,
              std::size_t{512}}) {
            const Baes_engine::Otp_request req{0x7000 + bytes, 3 + bytes};
            std::vector<u8> data(bytes);
            for (auto& b : data) b = rng.next_byte();
            std::vector<u8> want = data;
            const auto pads = baes.otps(req.pa, req.vn, ceil_div(bytes, std::size_t{16}));
            for (std::size_t i = 0; i < bytes; ++i)
                want[i] = static_cast<u8>(want[i] ^ pads[i / 16][i % 16]);

            Block16 base{};
            baes.otps_many({&req, 1}, {&base, 1});
            std::vector<Block16> scratch;
            baes.crypt_with_base(data, req.pa, req.vn, base, scratch);
            EXPECT_EQ(data, want) << 8 * key_bytes << "-bit key, " << bytes << " B";
        }
    }
}

TEST_P(BaesKindTest, DerivedBanksArePortableExpansionsOfTheRekeyedKey)
{
    // Lane l past the primary bank takes round key l % lanes of
    // keyExpansion(key ^ (PA || VN + bank)), bank = l / lanes -- computed
    // here with the portable expansion, independently of the engine.
    for (const std::size_t key_bytes : {16u, 24u, 32u}) {
        const auto key = key_of(key_bytes);
        const Baes_engine baes(key, GetParam());
        const Addr pa = 0xFEDC'BA98'7654'3200ULL;
        const u64 vn = 0xFFFF'FFFF'FFFF'FFFEULL;  // banks 2 and 3 wrap the VN half
        const std::size_t native = baes.native_lanes();
        const auto pads = baes.otps(pa, vn, 3 * native + 2);
        const Block16 base = baes.ctr().otp(pa, vn);
        for (std::size_t lane = 0; lane < pads.size(); ++lane) {
            const u64 bank = lane / native;
            Round_key_bank keys{};
            if (bank == 0) {
                keys[lane] = baes.ctr().engine().round_keys()[lane];
            } else {
                const Block16 ctr = counter_add(make_counter(pa, vn), bank);
                std::vector<u8> derived = key;
                for (std::size_t i = 0; i < derived.size(); ++i)
                    derived[i] = static_cast<u8>(derived[i] ^ ctr[i % 16]);
                ASSERT_EQ(expand_round_keys_portable(derived, keys), native);
            }
            EXPECT_EQ(pads[lane], xor_blocks(base, keys[lane % native]))
                << 8 * key_bytes << "-bit key, lane " << lane;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BaesKindTest,
                         ::testing::ValuesIn(all_backend_kinds().begin(),
                                             all_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace seda::crypto
