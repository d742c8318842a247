// Batch I/O through the functional secure memory: a batch must behave
// bit-for-bit like the same units issued one call at a time, and per-unit
// attack detection must keep firing inside a batch.
#include <gtest/gtest.h>

#include <map>
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
        Rng rng(0xBA7C);
        for (auto& b : enc) b = rng.next_byte();
        for (auto& b : mac) b = rng.next_byte();
    }
};

std::vector<std::vector<u8>> tile_data(std::size_t units, Bytes unit_bytes, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<u8>> tile(units);
    for (auto& unit : tile) {
        unit.resize(unit_bytes);
        for (auto& b : unit) b = rng.next_byte();
    }
    return tile;
}

constexpr std::size_t k_units = 16;
constexpr Bytes k_unit_bytes = 64;

std::vector<Secure_memory::Unit_write> make_writes(
    const std::vector<std::vector<u8>>& tile)
{
    std::vector<Secure_memory::Unit_write> batch;
    for (std::size_t i = 0; i < tile.size(); ++i)
        batch.push_back({0x1000 + i * k_unit_bytes, tile[i], 3, 1,
                         static_cast<u32>(i)});
    return batch;
}

std::vector<Secure_memory::Unit_read> make_reads(std::vector<std::vector<u8>>& out)
{
    std::vector<Secure_memory::Unit_read> batch;
    for (std::size_t i = 0; i < out.size(); ++i)
        batch.push_back({0x1000 + i * k_unit_bytes, out[i], 3, 1,
                         static_cast<u32>(i)});
    return batch;
}

TEST(SecureMemoryBatch, WriteReadRoundtrip)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(k_units, k_unit_bytes, 1);
    mem.write_units(make_writes(tile));
    EXPECT_EQ(mem.unit_count(), k_units);

    auto out = tile_data(k_units, k_unit_bytes, 999);  // junk to overwrite
    const auto statuses = mem.read_units(make_reads(out));
    ASSERT_EQ(statuses.size(), k_units);
    for (std::size_t i = 0; i < k_units; ++i) {
        EXPECT_EQ(statuses[i], Verify_status::ok) << "unit " << i;
        EXPECT_EQ(out[i], tile[i]) << "unit " << i;
    }
}

/// Position fields that follow the address, so every entry for one unit
/// carries the same MAC context however often it repeats.
u32 blk_of(Addr addr) { return static_cast<u32>(addr / k_unit_bytes); }

/// Writes `addrs` (repeats allowed) as one batch into one memory and one
/// write() at a time into another, then reads every entry back both ways:
/// stored state, MAC fold, statuses and plaintext must all agree, and each
/// address must hold its last payload.
void expect_batch_matches_single_calls(const std::vector<Addr>& addrs, u64 seed)
{
    Keys k;
    Secure_memory batched(k.enc, k.mac);
    Secure_memory individual(k.enc, k.mac);
    const auto tile = tile_data(addrs.size(), k_unit_bytes, seed);
    std::vector<Secure_memory::Unit_write> writes;
    std::map<Addr, std::size_t> last_write;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        writes.push_back({addrs[i], tile[i], 3, 1, blk_of(addrs[i])});
        last_write[addrs[i]] = i;
    }

    batched.write_units(writes);
    for (const auto& w : writes)
        individual.write(w.addr, w.plaintext, w.layer_id, w.fmap_idx, w.blk_idx);

    EXPECT_EQ(batched.unit_count(), last_write.size());
    EXPECT_EQ(individual.unit_count(), last_write.size());
    for (const auto& [addr, last] : last_write) {
        const auto a = batched.snapshot(addr);
        const auto b = individual.snapshot(addr);
        EXPECT_EQ(a.ciphertext, b.ciphertext) << std::hex << addr;
        EXPECT_EQ(a.mac, b.mac) << std::hex << addr;
        EXPECT_EQ(a.stored_vn, b.stored_vn) << std::hex << addr;
    }
    EXPECT_EQ(batched.fold_all_macs(), individual.fold_all_macs());

    // Read side: batch statuses and plaintext equal the one-by-one path.
    auto batch_out = tile_data(addrs.size(), k_unit_bytes, 999);
    std::vector<Secure_memory::Unit_read> reads;
    for (std::size_t i = 0; i < addrs.size(); ++i)
        reads.push_back({addrs[i], batch_out[i], 3, 1, blk_of(addrs[i])});
    const auto statuses = batched.read_units(reads);
    ASSERT_EQ(statuses.size(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        std::vector<u8> single_out(k_unit_bytes);
        EXPECT_EQ(individual.read(addrs[i], single_out, 3, 1, blk_of(addrs[i])),
                  statuses[i]);
        EXPECT_EQ(statuses[i], Verify_status::ok) << "entry " << i;
        EXPECT_EQ(single_out, batch_out[i]) << "entry " << i;
        EXPECT_EQ(batch_out[i], tile[last_write.at(addrs[i])]) << "entry " << i;
    }
}

TEST(SecureMemoryBatch, MatchesSingleCallsBitForBit)
{
    // One tile of consecutive units.
    std::vector<Addr> tile;
    for (std::size_t i = 0; i < k_units; ++i) tile.push_back(0x1000 + i * k_unit_bytes);
    expect_batch_matches_single_calls(tile, 2);

    // A batch straddling an arena page boundary, with in-batch duplicates on
    // both sides of it.
    constexpr Addr u = k_unit_bytes;
    constexpr Addr edge = 0x1000 + Secure_memory::k_page_units * u;
    expect_batch_matches_single_calls({edge - 2 * u, edge - u, edge, edge + u, edge - u,
                                       edge + 3 * u, edge, edge - 2 * u, edge + u, edge - u},
                                      12);

    // Units in the activation region, across its first page boundary and
    // into a page of their own, with repeats.
    constexpr Addr act = 0xA000'0000;
    std::vector<Addr> acts;
    for (std::size_t i = 0; i < 70; ++i) acts.push_back(act + i * u);
    acts.push_back(act - u);
    acts.push_back(act + 65 * u);
    acts.push_back(act + 1000 * u);
    acts.push_back(act);
    expect_batch_matches_single_calls(acts, 13);
}

TEST(SecureMemoryBatch, TamperDetectionFiresPerUnit)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(k_units, k_unit_bytes, 3);
    mem.write_units(make_writes(tile));

    // Corrupt exactly one unit in the middle of the tile.
    mem.tamper(0x1000 + 7 * k_unit_bytes, 13, 0x80);

    auto out = tile_data(k_units, k_unit_bytes, 999);
    const auto statuses = mem.read_units(make_reads(out));
    for (std::size_t i = 0; i < k_units; ++i) {
        if (i == 7)
            EXPECT_EQ(statuses[i], Verify_status::mac_mismatch);
        else
            EXPECT_EQ(statuses[i], Verify_status::ok) << "unit " << i;
    }
}

TEST(SecureMemoryBatch, ReplayDetectionFiresPerUnit)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(k_units, k_unit_bytes, 4);
    mem.write_units(make_writes(tile));

    // Attacker snapshots one unit, the tile is rewritten, the old unit is
    // rolled back: stale-but-self-consistent data under a bumped VN.
    const Addr victim = 0x1000 + 5 * k_unit_bytes;
    const auto old = mem.snapshot(victim);
    const auto tile2 = tile_data(k_units, k_unit_bytes, 5);
    mem.write_units(make_writes(tile2));
    mem.rollback(victim, old);

    auto out = tile_data(k_units, k_unit_bytes, 999);
    const auto statuses = mem.read_units(make_reads(out));
    for (std::size_t i = 0; i < k_units; ++i) {
        if (i == 5)
            EXPECT_EQ(statuses[i], Verify_status::replay_detected);
        else
            EXPECT_EQ(statuses[i], Verify_status::ok) << "unit " << i;
    }
}

TEST(SecureMemoryBatch, BatchWriteBumpsVnPerUnit)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(k_units, k_unit_bytes, 6);
    mem.write_units(make_writes(tile));
    mem.write_units(make_writes(tile));
    // Every unit was written twice; stored_vn reflects the per-unit counter.
    for (std::size_t i = 0; i < k_units; ++i)
        EXPECT_EQ(mem.snapshot(0x1000 + i * k_unit_bytes).stored_vn, 2u);
}

TEST(SecureMemoryBatch, EmptyBatchIsANoop)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    mem.write_units({});
    EXPECT_EQ(mem.unit_count(), 0u);
    EXPECT_TRUE(mem.read_units({}).empty());
}

TEST(SecureMemoryBatch, MisalignedUnitInBatchThrows)
{
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(1, k_unit_bytes, 7);
    std::vector<Secure_memory::Unit_write> batch = {{0x1001, tile[0], 0, 0, 0}};
    EXPECT_THROW(mem.write_units(batch), Seda_error);
}

TEST(SecureMemoryBatch, BadReadsThrowInsideAnAllocatedPage)
{
    // The serving layer counts such reads as rejected only because they
    // throw: a never-written unit whose page already exists, and an
    // unaligned address into a written unit, must both still throw -- in
    // a batch, before any output byte is written.
    Keys k;
    Secure_memory mem(k.enc, k.mac);
    const auto tile = tile_data(2, k_unit_bytes, 8);
    mem.write(0x1000, tile[0], 0, 0, 0);
    mem.write(0x1080, tile[1], 0, 0, 2);

    std::vector<u8> out(k_unit_bytes);
    EXPECT_THROW((void)mem.read(0x1040, out, 0, 0, 1), Seda_error);  // never written
    EXPECT_THROW((void)mem.read(0x1001, out, 0, 0, 0), Seda_error);  // unaligned
    EXPECT_THROW((void)mem.read(0x1FC0, out, 0, 0, 0), Seda_error);  // last unit of the page

    for (const Addr bad : {Addr{0x1040}, Addr{0x1081}}) {
        auto outs = tile_data(2, k_unit_bytes, 999);
        const auto junk = outs;
        const std::vector<Secure_memory::Unit_read> batch = {{0x1000, outs[0], 0, 0, 0},
                                                             {bad, outs[1], 0, 0, 2}};
        EXPECT_THROW((void)mem.read_units(batch), Seda_error) << std::hex << bad;
        EXPECT_EQ(outs, junk) << std::hex << bad;
    }
    EXPECT_EQ(mem.unit_count(), 2u);
    EXPECT_THROW(mem.tamper(0x1040, 0, 1), Seda_error);
    EXPECT_THROW((void)mem.snapshot(0x1040), Seda_error);

    EXPECT_EQ(mem.read(0x1080, out, 0, 0, 2), Verify_status::ok);
    EXPECT_EQ(out, tile[1]);
}

}  // namespace
}  // namespace seda::core
