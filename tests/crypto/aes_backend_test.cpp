// Cross-validation of the pluggable AES backends: every backend must produce
// identical ciphertext from the same key schedule, on the FIPS-197 vectors
// and on randomized keys/blocks across all three key sizes.  Backend kinds
// are enumerated at runtime -- hardware kinds skip with a message on hosts
// whose CPUID lacks the feature, so the same test binary is exhaustive on
// an AES-NI Xeon and green on a feature-less VM.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/aes_backend.h"

namespace seda::crypto {
namespace {

/// The subset of all_backend_kinds() this host can actually run.
std::vector<Aes_backend_kind> available_backend_kinds()
{
    std::vector<Aes_backend_kind> kinds;
    for (const auto kind : all_backend_kinds())
        if (backend_available(kind)) kinds.push_back(kind);
    return kinds;
}

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

struct Fips_vector {
    const char* key;
    const char* plaintext;
    const char* ciphertext;
};

constexpr Fips_vector k_fips_vectors[] = {
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
    {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
};

class AesBackendTest : public ::testing::TestWithParam<Aes_backend_kind> {
protected:
    void SetUp() override
    {
        if (!backend_available(GetParam()))
            GTEST_SKIP() << to_string(GetParam())
                         << " backend not available on this CPU/build";
    }
};

TEST_P(AesBackendTest, Fips197Vectors)
{
    for (const auto& v : k_fips_vectors) {
        const Aes aes(from_hex(v.key), GetParam());
        EXPECT_EQ(aes.encrypt_block(block_from_hex(v.plaintext)),
                  block_from_hex(v.ciphertext));
    }
}

TEST_P(AesBackendTest, BulkMatchesBlockwise)
{
    Rng rng(0xB17E);
    std::vector<u8> key(16);
    for (auto& b : key) b = rng.next_byte();
    const Aes aes(key, GetParam());

    std::vector<Block16> blocks(67);  // odd count: exercises partial batches
    for (auto& blk : blocks)
        for (auto& b : blk) b = rng.next_byte();
    std::vector<Block16> bulk = blocks;
    aes.encrypt_blocks(bulk);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        EXPECT_EQ(bulk[i], aes.encrypt_block(blocks[i])) << "block " << i;
}

INSTANTIATE_TEST_SUITE_P(Kinds, AesBackendTest,
                         ::testing::ValuesIn(all_backend_kinds().begin(),
                                             all_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

TEST(AesBackendCrossValidation, RandomKeysAndBlocksAgree)
{
    // >= 200 randomized (key, block) trials diffing every available backend
    // against the FIPS-197 scalar reference, across all three key sizes.
    Rng rng(0xC0DE);
    const auto kinds = available_backend_kinds();
    for (const std::size_t key_len : {16u, 24u, 32u}) {
        for (int trial = 0; trial < 16; ++trial) {
            std::vector<u8> key(key_len);
            for (auto& b : key) b = rng.next_byte();
            const Aes scalar(key, Aes_backend_kind::scalar);
            std::vector<Aes> others;
            for (const auto kind : kinds)
                if (kind != Aes_backend_kind::scalar) others.emplace_back(key, kind);
            for (int i = 0; i < 16; ++i) {
                Block16 p{};
                for (auto& b : p) b = rng.next_byte();
                const Block16 c = scalar.encrypt_block(p);
                for (const Aes& aes : others)
                    EXPECT_EQ(aes.encrypt_block(p), c) << aes.backend_name();
            }
        }
    }
}

TEST(AesBackendCrossValidation, HardwareKeyExpansionMatchesPortable)
{
    // expand_round_keys dispatches AES-128 through aeskeygenassist when the
    // hardware is present; the schedule must be bit-identical to the
    // portable RotWord/SubWord/Rcon path for any key.  (On hosts without
    // AES-NI both calls take the portable path and this degenerates to a
    // determinism check.)
    Rng rng(0x4E5);
    const auto expect_same_schedule = [](const std::vector<u8>& key) {
        Round_key_bank dispatched{}, portable{};
        EXPECT_EQ(expand_round_keys(key, dispatched), expand_round_keys_portable(key, portable));
        EXPECT_EQ(dispatched, portable) << key.size() << " B key";
    };
    for (int trial = 0; trial < 64; ++trial) {
        std::vector<u8> key(16);
        for (auto& b : key) b = rng.next_byte();
        expect_same_schedule(key);
    }
    for (const std::size_t key_len : {24u, 32u}) {
        std::vector<u8> key(key_len);
        for (auto& b : key) b = rng.next_byte();
        expect_same_schedule(key);
    }
}

TEST(AesBackendCrossValidation, SchedulesAgreeAcrossBackends)
{
    // The schedule is backend-independent; only the round implementation
    // differs.  B-AES depends on this: its pads come from round_keys().
    std::vector<u8> key(32);
    Rng rng(0x5EDA);
    for (auto& b : key) b = rng.next_byte();
    const Aes scalar(key, Aes_backend_kind::scalar);
    const Aes ttable(key, Aes_backend_kind::ttable);
    ASSERT_EQ(scalar.round_keys().size(), ttable.round_keys().size());
    for (std::size_t i = 0; i < scalar.round_keys().size(); ++i)
        EXPECT_EQ(scalar.round_keys()[i], ttable.round_keys()[i]);
    EXPECT_EQ(scalar.schedule().enc_words, ttable.schedule().enc_words);
}

TEST(AesBackendRegistry, NamesAndResolution)
{
    EXPECT_EQ(scalar_backend().name(), "scalar");
    EXPECT_EQ(ttable_backend().name(), "ttable");
    EXPECT_EQ(&backend_for(Aes_backend_kind::scalar), &scalar_backend());
    EXPECT_EQ(&backend_for(Aes_backend_kind::ttable), &ttable_backend());
    // auto_select resolves to the process-wide default.
    EXPECT_EQ(&backend_for(Aes_backend_kind::auto_select),
              &backend_for(default_backend_kind()));
    EXPECT_EQ(all_backend_kinds().size(), 3u);
    // scalar and ttable run anywhere; aesni mirrors the CPUID gate.
    EXPECT_TRUE(backend_available(Aes_backend_kind::scalar));
    EXPECT_TRUE(backend_available(Aes_backend_kind::ttable));
    EXPECT_EQ(backend_available(Aes_backend_kind::aesni), aesni_backend() != nullptr);
    if (aesni_backend() != nullptr) {
        EXPECT_EQ(aesni_backend()->name(), "aesni");
        EXPECT_EQ(&backend_for(Aes_backend_kind::aesni), aesni_backend());
    } else {
        // A hardware kind forced on a CPU without it degrades to ttable.
        EXPECT_EQ(&backend_for(Aes_backend_kind::aesni), &ttable_backend());
    }
}

TEST(AesBackendRegistry, AesReportsItsBackend)
{
    std::vector<u8> key(16, 0x42);
    EXPECT_EQ(Aes(key, Aes_backend_kind::scalar).backend_name(), "scalar");
    EXPECT_EQ(Aes(key, Aes_backend_kind::ttable).backend_name(), "ttable");
    if (backend_available(Aes_backend_kind::aesni)) {
        EXPECT_EQ(Aes(key, Aes_backend_kind::aesni).backend_name(), "aesni");
    }
}

}  // namespace
}  // namespace seda::crypto
