// Cross-validation of the pluggable SHA-256 backends: every backend must
// produce bit-identical digests (NIST vectors + randomized lengths), and a
// multi-block compress call must equal block-by-block calls.  Backend kinds
// are enumerated at runtime -- hardware kinds skip with a message when CPUID
// lacks the feature, so the binary is exhaustive on SHA-NI hosts and green
// elsewhere.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
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

}  // namespace
}  // namespace seda::crypto
