// Stored units must verify under every crypto backend: ciphertext and MACs
// sealed with one (B-AES, CMAC) pair of AES backends are read back through
// engines forced to another pair.  The suite JSON cannot witness this -- it prices
// traffic analytically and never runs a cipher -- so these tests are what
// keeps a backend switch from stranding data already in memory.  Hardware
// kinds the host lacks are left out of the sweep.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/secure_memory.h"
#include "crypto/aes_backend.h"

namespace seda::core {
namespace {

struct Keys {
    std::vector<u8> enc = std::vector<u8>(16);
    std::vector<u8> mac = std::vector<u8>(16);
    Keys()
    {
        Rng rng(0xC805);
        for (auto& b : enc) b = rng.next_byte();
        for (auto& b : mac) b = rng.next_byte();
    }
};

/// 64 B is the unit-MAC baseline; 512 B has 32 segments, more than AES-128's
/// 11 round keys, so B-AES runs its derived-bank path.
constexpr Bytes k_unit_sizes[] = {64, 512};
constexpr std::size_t k_units = 24;

/// Every fifth unit slot, so a batch spans two arena pages.
Addr unit_addr(std::size_t i, Bytes unit_bytes) { return 0x40000 + 5 * i * unit_bytes; }

std::vector<std::vector<u8>> payloads(Bytes unit_bytes)
{
    Rng rng(unit_bytes);
    std::vector<std::vector<u8>> units(k_units, std::vector<u8>(unit_bytes));
    for (auto& unit : units)
        for (auto& b : unit) b = rng.next_byte();
    return units;
}

std::vector<Secure_memory::Unit_write> writes_of(const std::vector<std::vector<u8>>& units)
{
    std::vector<Secure_memory::Unit_write> batch;
    for (std::size_t i = 0; i < units.size(); ++i)
        batch.push_back({unit_addr(i, units[i].size()), units[i], 2, static_cast<u32>(i % 3),
                         static_cast<u32>(i)});
    return batch;
}

std::vector<Secure_memory::Unit_read> reads_into(std::vector<std::vector<u8>>& out)
{
    std::vector<Secure_memory::Unit_read> batch;
    for (std::size_t i = 0; i < out.size(); ++i)
        batch.push_back({unit_addr(i, out[i].size()), out[i], 2, static_cast<u32>(i % 3),
                         static_cast<u32>(i)});
    return batch;
}

std::vector<crypto::Aes_backend_kind> aes_kinds()
{
    std::vector<crypto::Aes_backend_kind> kinds;
    for (const auto kind : crypto::all_backend_kinds())
        if (crypto::backend_available(kind)) kinds.push_back(kind);
    return kinds;
}

TEST(SecureMemoryCrossBackend, DefaultWritesVerifyUnderEveryBackend)
{
    const Keys k;
    for (const Bytes unit_bytes : k_unit_sizes) {
        Secure_memory mem(k.enc, k.mac, Secure_mem_config{unit_bytes});
        const auto units = payloads(unit_bytes);
        mem.write_units(writes_of(units));

        for (const auto enc : aes_kinds()) {
            for (const auto mac : aes_kinds()) {
                const crypto::Baes_engine baes(k.enc, enc);
                const crypto::Cmac_engine cmac(k.mac, mac);
                std::vector<std::vector<u8>> out(k_units, std::vector<u8>(unit_bytes));
                Secure_memory::Bulk_scratch scratch;
                std::vector<Verify_status> status(k_units);
                mem.read_units_with(reads_into(out), baes, cmac, scratch, status);
                for (std::size_t i = 0; i < k_units; ++i) {
                    EXPECT_STREQ(to_string(status[i]), "ok")
                        << unit_bytes << " B unit " << i << " under " << to_string(enc)
                        << " x " << to_string(mac);
                    EXPECT_EQ(out[i], units[i]) << unit_bytes << " B unit " << i << " under "
                                                << to_string(enc) << " x " << to_string(mac);
                }
            }
        }
    }
}

TEST(SecureMemoryCrossBackend, ScalarSealedUnitsVerifyUnderDefaults)
{
    const Keys k;
    const crypto::Baes_engine baes(k.enc, crypto::Aes_backend_kind::scalar);
    const crypto::Cmac_engine cmac(k.mac, crypto::Aes_backend_kind::scalar);
    for (const Bytes unit_bytes : k_unit_sizes) {
        Secure_memory mem(k.enc, k.mac, Secure_mem_config{unit_bytes});
        const auto units = payloads(unit_bytes);
        const auto writes = writes_of(units);
        Secure_memory::Bulk_scratch scratch;
        Secure_memory::encrypt_slots(mem.stage_writes(writes), baes, cmac, scratch);

        std::vector<std::vector<u8>> out(k_units, std::vector<u8>(unit_bytes));
        const auto status = mem.read_units(reads_into(out));
        for (std::size_t i = 0; i < k_units; ++i) {
            EXPECT_STREQ(to_string(status[i]), "ok") << unit_bytes << " B unit " << i;
            EXPECT_EQ(out[i], units[i]) << unit_bytes << " B unit " << i;
        }
    }
}

}  // namespace
}  // namespace seda::core
