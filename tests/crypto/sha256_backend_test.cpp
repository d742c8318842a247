// Cross-validation of the pluggable SHA-256 backends and the bulk HMAC
// pipeline: every backend must produce bit-identical digests (NIST vectors
// + randomized lengths), compress_many must equal the serial loop, and
// positional_macs must equal a loop of single-unit calls on equal-length and
// ragged batches alike.  Backend kinds are enumerated at runtime -- hardware
// kinds skip with a message when CPUID lacks the feature, so the binary is
// exhaustive on SHA-NI hosts and green elsewhere.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/mac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"

namespace seda::crypto {
namespace {

std::vector<u8> random_bytes(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> out(n);
    for (auto& b : out) b = rng.next_byte();
    return out;
}

Digest256 digest_with(Sha256_backend_kind kind, std::span<const u8> data)
{
    Sha256 h(kind);
    h.update(data);
    return h.finish();
}

/// The subset of all_sha256_backend_kinds() this host can actually run.
std::vector<Sha256_backend_kind> available_sha256_backend_kinds()
{
    std::vector<Sha256_backend_kind> kinds;
    for (const auto kind : all_sha256_backend_kinds())
        if (sha256_backend_available(kind)) kinds.push_back(kind);
    return kinds;
}

class Sha256BackendTest : public ::testing::TestWithParam<Sha256_backend_kind> {
protected:
    void SetUp() override
    {
        if (!sha256_backend_available(GetParam()))
            GTEST_SKIP() << to_string(GetParam())
                         << " backend not available on this CPU/build";
    }
};

TEST_P(Sha256BackendTest, NistVectors)
{
    const auto kind = GetParam();
    const struct {
        const char* message;
        const char* digest_hex;
    } vectors[] = {
        {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
         "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
    };
    for (const auto& v : vectors) {
        const std::string s = v.message;
        const std::vector<u8> bytes(s.begin(), s.end());
        EXPECT_EQ(to_hex(digest_with(kind, bytes)), v.digest_hex) << "message: " << s;
    }
}

TEST_P(Sha256BackendTest, NamedBackendIsResolvable)
{
    const auto& backend = sha256_backend_for(GetParam());
    EXPECT_EQ(backend.name(), to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Sha256BackendTest,
                         ::testing::ValuesIn(all_sha256_backend_kinds().begin(),
                                             all_sha256_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

TEST(Sha256Backend, AllBackendsAgreeOnRandomizedLengths)
{
    // Lengths sweep every padding shape: sub-block, block-aligned, the
    // 55/56/63/64 pad boundaries, and multi-block messages.  Every backend
    // this host can run is diffed against the scalar reference.
    Rng rng(0xC0FFEE);
    const auto kinds = available_sha256_backend_kinds();
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t len = static_cast<std::size_t>(rng.next_u64() % 300);
        const auto data = random_bytes(len, 0x5EED + static_cast<u64>(trial));
        const auto reference = digest_with(Sha256_backend_kind::scalar, data);
        for (const auto kind : kinds) {
            if (kind == Sha256_backend_kind::scalar) continue;
            EXPECT_EQ(digest_with(kind, data), reference)
                << to_string(kind) << " length " << len;
        }
    }
}

TEST(Sha256Backend, AutoSelectMatchesNamedBackends)
{
    const auto data = random_bytes(129, 42);
    const auto via_auto = digest_with(Sha256_backend_kind::auto_select, data);
    EXPECT_EQ(via_auto, digest_with(default_sha256_backend_kind(), data));
}

TEST(Sha256Backend, CompressManyMatchesSerialLoop)
{
    // Random independent (state, block) jobs: the multi-buffer entry point
    // must leave every state exactly where the serial loop would.
    for (const auto kind : available_sha256_backend_kinds()) {
        const auto& backend = sha256_backend_for(kind);
        for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u}) {
            const auto blocks = random_bytes(n * 64, 0xB10C + n);
            std::vector<Sha256_state> many(n);
            std::vector<Sha256_state> serial(n);
            for (std::size_t i = 0; i < n; ++i) {
                Rng rng(0x57A7E + i);
                for (auto& w : many[i]) w = static_cast<u32>(rng.next_u64());
                serial[i] = many[i];
            }

            std::vector<Sha256_job> jobs;
            for (std::size_t i = 0; i < n; ++i)
                jobs.push_back({&many[i], blocks.data() + 64 * i});
            backend.compress_many(jobs);

            for (std::size_t i = 0; i < n; ++i)
                backend.compress(serial[i], blocks.data() + 64 * i, 1);
            EXPECT_EQ(many, serial) << to_string(kind) << " batch of " << n;
        }
    }
}

TEST(Sha256Backend, MultiBlockCompressMatchesBlockwise)
{
    const auto data = random_bytes(64 * 9, 0xABCD);
    for (const auto kind : available_sha256_backend_kinds()) {
        const auto& backend = sha256_backend_for(kind);
        Sha256_state oneshot = sha256_initial_state();
        backend.compress(oneshot, data.data(), 9);
        Sha256_state blockwise = sha256_initial_state();
        for (int b = 0; b < 9; ++b) backend.compress(blockwise, data.data() + 64 * b, 1);
        EXPECT_EQ(oneshot, blockwise) << to_string(kind);
    }
}

// ---- bulk HMAC ≡ loop of single MACs ---------------------------------------

class HmacBulkTest : public ::testing::TestWithParam<Sha256_backend_kind> {
protected:
    void SetUp() override
    {
        if (!sha256_backend_available(GetParam()))
            GTEST_SKIP() << to_string(GetParam())
                         << " backend not available on this CPU/build";
    }
};

TEST_P(HmacBulkTest, PositionalMacsEqualLoop)
{
    // 64 B is the unit-MAC baseline; 128-512 B are the optBlk sizes SeDA's
    // integrity scheme sends through the same call.
    const Hmac_engine engine(random_bytes(16, 3), GetParam());
    for (const std::size_t unit_bytes : {64u, 128u, 256u, 512u}) {
        std::vector<std::vector<u8>> units;
        std::vector<Mac_request> reqs;
        for (std::size_t i = 0; i < 21; ++i)  // not a lane multiple on purpose
            units.push_back(random_bytes(unit_bytes, 300 + i));
        for (std::size_t i = 0; i < units.size(); ++i) {
            const Mac_context ctx{0x1000 + unit_bytes * i, i + 1, static_cast<u32>(i % 5),
                                  static_cast<u32>(i % 3), static_cast<u32>(i)};
            reqs.push_back({units[i], ctx});
        }

        std::vector<u64> bulk(reqs.size());
        engine.positional_macs(reqs, bulk);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            EXPECT_EQ(bulk[i], engine.positional_mac(reqs[i].ciphertext, reqs[i].ctx))
                << unit_bytes << " B unit " << i;
    }
}

TEST_P(HmacBulkTest, PositionalMacsEqualLoopOnRaggedLengths)
{
    // Ragged units drop out of later waves, and the 28 B position suffix
    // decides where each unit's tail and padding fall.
    const Hmac_engine engine(random_bytes(16, 2), GetParam());
    Rng rng(0x7A66ED);
    std::vector<std::vector<u8>> units;
    std::vector<Mac_request> reqs;
    for (std::size_t i = 0; i < 24; ++i)
        units.push_back(random_bytes(rng.next_u64() % 300, 200 + i));
    for (std::size_t i = 0; i < units.size(); ++i)
        reqs.push_back({units[i], Mac_context{0x4000 + 512 * i, i + 1, 2,
                                              static_cast<u32>(i % 4), static_cast<u32>(i)}});

    std::vector<u64> bulk(reqs.size());
    engine.positional_macs(reqs, bulk);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(bulk[i], engine.positional_mac(reqs[i].ciphertext, reqs[i].ctx))
            << "unit " << i << " len " << units[i].size();
}

TEST_P(HmacBulkTest, EmptyBatchIsANoop)
{
    const Hmac_engine engine(random_bytes(16, 4), GetParam());
    engine.positional_macs({}, {});
}

TEST_P(HmacBulkTest, BackendsProduceIdenticalMacs)
{
    // The MAC must not depend on which backend computed it -- Secure_memory
    // state written under one backend must verify under any other.
    const auto key = random_bytes(16, 5);
    const Hmac_engine reference(key, Sha256_backend_kind::scalar);
    const auto unit = random_bytes(64, 6);
    const Mac_context ctx{0x2000, 9, 1, 2, 3};
    for (const auto kind : available_sha256_backend_kinds()) {
        if (kind == Sha256_backend_kind::scalar) continue;
        const Hmac_engine other(key, kind);
        EXPECT_EQ(reference.positional_mac(unit, ctx), other.positional_mac(unit, ctx))
            << to_string(kind);
        EXPECT_EQ(reference.mac(unit), other.mac(unit)) << to_string(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, HmacBulkTest,
                         ::testing::ValuesIn(all_sha256_backend_kinds().begin(),
                                             all_sha256_backend_kinds().end()),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace seda::crypto
