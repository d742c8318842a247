// Functional secure memory: real crypto against a real memory adversary.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/secure_memory.h"

namespace seda::core {
namespace {

struct Keys {
    std::vector<u8> enc = std::vector<u8>(16);
    std::vector<u8> mac = std::vector<u8>(16);
    Keys()
    {
        Rng rng(0x5EC);
        for (auto& b : enc) b = rng.next_byte();
        for (auto& b : mac) b = rng.next_byte();
    }
};

std::vector<u8> unit_data(u64 seed, Bytes n = 64)
{
    Rng rng(seed);
    std::vector<u8> v(n);
    for (auto& b : v) b = rng.next_byte();
    return v;
}

TEST(SecureMemory, WriteReadRoundtrip)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto plain = unit_data(1);
    mem.write(0x1000, plain, 0, 0, 0);

    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::ok);
    EXPECT_EQ(out, plain);
}

TEST(SecureMemory, CiphertextIsNotPlaintext)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto plain = unit_data(2);
    mem.write(0x1000, plain, 0, 0, 0);
    EXPECT_NE(mem.snapshot(0x1000).ciphertext, plain);
}

TEST(SecureMemory, RewriteBumpsVnAndChangesCiphertext)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto plain = unit_data(3);
    mem.write(0x1000, plain, 0, 0, 0);
    const auto first = mem.snapshot(0x1000);
    mem.write(0x1000, plain, 0, 0, 0);  // same plaintext, new VN
    const auto second = mem.snapshot(0x1000);
    EXPECT_NE(first.ciphertext, second.ciphertext);  // temporal uniqueness
    EXPECT_NE(first.mac, second.mac);

    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::ok);
    EXPECT_EQ(out, plain);
}

TEST(SecureMemory, TamperIsDetected)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write(0x1000, unit_data(4), 0, 0, 0);
    mem.tamper(0x1000, 17, 0x01);  // one flipped ciphertext bit
    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::mac_mismatch);
}

TEST(SecureMemory, SwappedUnitsAreDetected)
{
    // The memory-level RePA move: exchange two encrypted units.  Positional
    // MACs bind PA, so both reads fail.
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write(0x1000, unit_data(5), 0, 0, 0);
    mem.write(0x2000, unit_data(6), 0, 0, 1);
    mem.swap_units(0x1000, 0x2000);
    std::vector<u8> out(64);
    EXPECT_NE(mem.read(0x1000, out, 0, 0, 0), Verify_status::ok);
    EXPECT_NE(mem.read(0x2000, out, 0, 0, 1), Verify_status::ok);
}

TEST(SecureMemory, ReplayDetectedWithOnchipVns)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write(0x1000, unit_data(7), 0, 0, 0);
    const auto old = mem.snapshot(0x1000);  // attacker snapshots v1
    mem.write(0x1000, unit_data(8), 0, 0, 0);  // victim writes v2
    mem.rollback(0x1000, old);                 // attacker replays v1
    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::replay_detected);
}

TEST(SecureMemory, ReplaySucceedsWithOffchipVns)
{
    // The strawman: freshness state lives in the untrusted memory, so the
    // rollback is self-consistent and verification passes on stale data --
    // the reason MGX/TNPU/SeDA keep VNs on-chip.
    Keys k;
    Secure_memory::Config cfg;
    cfg.onchip_vns = false;
    Secure_memory mem(k.enc, k.mac, cfg);
    const auto v1 = unit_data(9);
    mem.write(0x1000, v1, 0, 0, 0);
    const auto old = mem.snapshot(0x1000);
    mem.write(0x1000, unit_data(10), 0, 0, 0);
    mem.rollback(0x1000, old);
    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::ok);  // attack wins
    EXPECT_EQ(out, v1);  // ... and the accelerator consumes stale weights
}

TEST(SecureMemory, RollbackRejectsAUnitOfAnotherSize)
{
    // A bus adversary can replay stored bytes but cannot resize a unit: a
    // snapshot that is not exactly one unit of ciphertext is refused and
    // leaves the stored unit as it was.
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto plain = unit_data(16);
    mem.write(0x1000, plain, 0, 0, 0);
    const auto before = mem.snapshot(0x1000);

    auto short_unit = before;
    short_unit.ciphertext.resize(32);
    auto long_unit = before;
    long_unit.ciphertext.push_back(0);
    for (const auto& bad : {Secure_memory::Stored_unit{}, short_unit, long_unit}) {
        EXPECT_THROW(mem.rollback(0x1000, bad), Seda_error);
        const auto after = mem.snapshot(0x1000);
        EXPECT_EQ(after.ciphertext, before.ciphertext);
        EXPECT_EQ(after.mac, before.mac);
        EXPECT_EQ(after.stored_vn, before.stored_vn);
    }

    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 0, 0, 0), Verify_status::ok);
    EXPECT_EQ(out, plain);
}

TEST(SecureMemory, WrongPositionFieldsFailVerification)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write(0x1000, unit_data(11), /*layer=*/3, /*fmap=*/1, /*blk=*/7);
    std::vector<u8> out(64);
    EXPECT_EQ(mem.read(0x1000, out, 3, 1, 7), Verify_status::ok);
    EXPECT_EQ(mem.read(0x1000, out, 4, 1, 7), Verify_status::mac_mismatch);
    EXPECT_EQ(mem.read(0x1000, out, 3, 2, 7), Verify_status::mac_mismatch);
    EXPECT_EQ(mem.read(0x1000, out, 3, 1, 8), Verify_status::mac_mismatch);
}

TEST(SecureMemory, FoldAllMacsTracksContents)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write(0x1000, unit_data(12), 0, 0, 0);
    mem.write(0x2000, unit_data(13), 0, 0, 1);
    const u64 fold = mem.fold_all_macs();
    mem.write(0x2000, unit_data(14), 0, 0, 1);
    EXPECT_NE(mem.fold_all_macs(), fold);
    EXPECT_EQ(mem.unit_count(), 2u);
}

TEST(SecureMemory, WiderUnitsWork)
{
    Keys k;
    Secure_memory::Config cfg;
    cfg.unit_bytes = 512;
    Secure_memory mem(k.enc, k.mac, cfg);
    const auto plain = unit_data(15, 512);
    mem.write(0x4000, plain, 1, 0, 3);
    std::vector<u8> out(512);
    EXPECT_EQ(mem.read(0x4000, out, 1, 0, 3), Verify_status::ok);
    EXPECT_EQ(out, plain);
    mem.tamper(0x4000, 511, 0x80);
    EXPECT_EQ(mem.read(0x4000, out, 1, 0, 3), Verify_status::mac_mismatch);
}

TEST(SecureMemory, UsageErrors)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    std::vector<u8> out(64);
    EXPECT_THROW((void)mem.read(0x9000, out, 0, 0, 0), Seda_error);  // never written
    EXPECT_THROW(mem.write(0x1001, unit_data(1), 0, 0, 0), Seda_error);  // unaligned
    std::vector<u8> short_buf(32);
    EXPECT_THROW(mem.write(0x1000, short_buf, 0, 0, 0), Seda_error);
    Secure_memory::Config bad;
    bad.unit_bytes = 40;  // not a multiple of the AES block
    EXPECT_THROW(Secure_memory(k.enc, k.mac, bad), Seda_error);
}

}  // namespace
}  // namespace seda::core
