// Multi-tenant isolation: per-tenant derived keys, cross-tenant
// verification failure (engines and spliced units), and tamper/replay
// detection while the server is under concurrent load.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/attacks.h"
#include "crypto/kdf.h"
#include "serve/server.h"

namespace seda::serve {
namespace {

using core::Secure_memory;
using core::Verify_status;

constexpr Bytes k_unit_bytes = 64;

std::vector<u8> make_key(u64 seed)
{
    Rng rng(seed);
    std::vector<u8> key(16);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

std::vector<u8> unit_data(u64 seed)
{
    Rng rng(seed);
    std::vector<u8> data(k_unit_bytes);
    for (auto& b : data) b = rng.next_byte();
    return data;
}

Request write_request(u32 tenant, Addr addr, std::vector<u8> payload)
{
    Request r;
    r.tenant_id = tenant;
    r.op = Op::write;
    r.addr = addr;
    r.payload = std::move(payload);
    r.layer_id = tenant;
    return r;
}

Request read_request(u32 tenant, Addr addr)
{
    Request r;
    r.tenant_id = tenant;
    r.op = Op::read;
    r.addr = addr;
    r.layer_id = tenant;
    return r;
}

TEST(TenantIsolation, DerivedKeysAreDistinctAndDeterministic)
{
    const auto enc = make_key(1);
    const auto mac = make_key(2);
    runtime::Thread_pool pool(1);
    Tenant a(0, enc, mac, {}, pool);
    Tenant b(1, enc, mac, {}, pool);

    // Distinct from each other, from the master, and across roles.
    const std::vector<u8> a_enc(a.enc_key().begin(), a.enc_key().end());
    const std::vector<u8> b_enc(b.enc_key().begin(), b.enc_key().end());
    const std::vector<u8> a_mac(a.mac_key().begin(), a.mac_key().end());
    EXPECT_NE(a_enc, b_enc);
    EXPECT_NE(a_enc, enc);
    EXPECT_NE(a_mac, a_enc);

    // Same (master, id) derives the same keys: sessions are reconnectable.
    Tenant a2(0, enc, mac, {}, pool);
    EXPECT_EQ(a_enc, std::vector<u8>(a2.enc_key().begin(), a2.enc_key().end()));
}

TEST(TenantIsolation, KdfSeparatesLabelsAndIds)
{
    const auto master = make_key(3);
    const auto k1 = crypto::derive_key(master, "label-a", 7);
    EXPECT_NE(k1, crypto::derive_key(master, "label-b", 7));
    EXPECT_NE(k1, crypto::derive_key(master, "label-a", 8));
    EXPECT_EQ(k1, crypto::derive_key(master, "label-a", 7));
    EXPECT_EQ(crypto::derive_key(master, "label-a", 7, 32).size(), 32u);
    EXPECT_THROW((void)crypto::derive_key(master, "x", 0, 33), Seda_error);
    EXPECT_THROW((void)crypto::derive_key(master, "x", 0, 0), Seda_error);
    EXPECT_THROW((void)crypto::derive_key({}, "x", 0), Seda_error);
}

TEST(TenantIsolation, CrossTenantEnginesFailMacVerification)
{
    const auto enc = make_key(4);
    const auto mac = make_key(5);
    runtime::Thread_pool pool(2);
    Tenant a(0, enc, mac, {}, pool);
    Tenant b(1, enc, mac, {}, pool);

    constexpr Addr addr = 0x1000;
    const auto data = unit_data(11);
    b.session().memory().write(addr, data, 1, 0, 0);

    // Tenant A's engines in front of tenant B's stored unit: the MAC was
    // minted under B's key, so A must see mac_mismatch -- and must NOT get
    // plaintext out.
    const crypto::Baes_engine a_baes(a.enc_key());
    const crypto::Cmac_engine a_cmac(a.mac_key());
    Secure_memory::Bulk_scratch scratch;
    std::vector<u8> out(k_unit_bytes, 0xAA);
    const Secure_memory::Unit_read r{addr, out, 1, 0, 0};
    Verify_status status = Verify_status::ok;
    b.session().memory().read_units_with({&r, 1}, a_baes, a_cmac, scratch, {&status, 1});
    EXPECT_EQ(status, Verify_status::mac_mismatch);
    EXPECT_EQ(out, std::vector<u8>(k_unit_bytes, 0xAA));  // untouched

    // B's own engines still verify.
    const crypto::Baes_engine b_baes(b.enc_key());
    const crypto::Cmac_engine b_cmac(b.mac_key());
    b.session().memory().read_units_with({&r, 1}, b_baes, b_cmac, scratch, {&status, 1});
    EXPECT_EQ(status, Verify_status::ok);
    EXPECT_EQ(out, data);
}

TEST(TenantIsolation, SplicedUnitFromOtherTenantFailsVerification)
{
    const auto enc = make_key(6);
    const auto mac = make_key(7);
    runtime::Thread_pool pool(2);
    Tenant a(0, enc, mac, {}, pool);
    Tenant b(1, enc, mac, {}, pool);

    // Same address in both tenants' (disjoint) memories.
    constexpr Addr addr = 0x2000;
    a.session().memory().write(addr, unit_data(21), 1, 0, 0);
    b.session().memory().write(addr, unit_data(22), 1, 0, 0);

    // Bus adversary splices B's stored unit into A's memory wholesale
    // (the same primitive the attack campaign's splice fault uses).
    crypto::splice_unit(a.session().memory(), addr, b.session().memory(), addr);

    std::vector<u8> out(k_unit_bytes);
    EXPECT_EQ(a.session().memory().read(addr, out, 1, 0, 0), Verify_status::mac_mismatch);
}

TEST(TenantIsolation, TamperAndReplayAreCaughtUnderConcurrentLoad)
{
    Server_config cfg;
    cfg.tenants = 3;
    cfg.workers = 4;
    Server server(make_key(8), make_key(9), cfg);
    server.start();

    // Seed every tenant's unit 0 and 1, then prepare the two attacks:
    // tamper tenant 0's unit, replay (rollback) tenant 1's unit.
    for (u32 t = 0; t < 3; ++t) {
        server.submit(write_request(t, 0, unit_data(100 + t))).get();
        server.submit(write_request(t, 64, unit_data(200 + t))).get();
    }
    const auto old = server.tenant(1).session().memory().snapshot(64);
    server.submit(write_request(1, 64, unit_data(999))).get();

    server.tenant(0).session().memory().tamper(0, 3, 0x80);
    server.tenant(1).session().memory().rollback(64, old);

    // Concurrent load: every tenant's clean unit read many times from
    // several threads while the two poisoned reads are in flight.
    std::vector<std::thread> load;
    std::atomic<u64> clean_not_ok{0};
    for (int th = 0; th < 4; ++th)
        load.emplace_back([&] {
            for (int i = 0; i < 50; ++i)
                for (u32 t = 0; t < 3; ++t) {
                    const Addr addr = (t == 0) ? 64 : 0;  // avoid the poisoned units
                    if (server.submit(read_request(t, addr)).get().status !=
                        Verify_status::ok)
                        ++clean_not_ok;
                }
        });

    const Response tampered = server.submit(read_request(0, 0)).get();
    const Response replayed = server.submit(read_request(1, 64)).get();
    for (auto& t : load) t.join();
    server.drain();

    EXPECT_EQ(tampered.status, Verify_status::mac_mismatch);
    EXPECT_TRUE(tampered.payload.empty());
    EXPECT_EQ(replayed.status, Verify_status::replay_detected);
    EXPECT_EQ(clean_not_ok, 0u);

    const auto stats = server.stats();
    EXPECT_EQ(stats.tenants[0].mac_mismatch, 1u);
    EXPECT_EQ(stats.tenants[1].replay_detected, 1u);
    EXPECT_EQ(stats.tenants[2].mac_mismatch + stats.tenants[2].replay_detected, 0u);

    // Exact attribution: each failure record names the unit, the bound MAC
    // context (write_request binds layer_id = tenant) and the failure
    // class -- and no tenant logged anything beyond its one poisoned read.
    ASSERT_EQ(stats.tenants[0].failures.size(), 1u);
    EXPECT_EQ(stats.tenants[0].failures[0],
              (Failure_record{0, 0, 0, 0, Verify_status::mac_mismatch}));
    ASSERT_EQ(stats.tenants[1].failures.size(), 1u);
    EXPECT_EQ(stats.tenants[1].failures[0],
              (Failure_record{64, 1, 0, 0, Verify_status::replay_detected}));
    EXPECT_TRUE(stats.tenants[2].failures.empty());
}

}  // namespace
}  // namespace seda::serve
