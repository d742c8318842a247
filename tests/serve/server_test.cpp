// serve::Server: lifecycle, round trips, batching correctness under
// concurrent clients, malformed-request containment, and stats.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "serve/server.h"

namespace seda::serve {
namespace {

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

Request make_request(u32 tenant, Op op, Addr addr, std::vector<u8> payload = {})
{
    Request r;
    r.tenant_id = tenant;
    r.op = op;
    r.addr = addr;
    r.payload = std::move(payload);
    return r;
}

TEST(ServeServer, WriteThenReadRoundTrips)
{
    Server server(make_key(1), make_key(2), {.tenants = 2, .workers = 2});
    server.start();

    const auto data = unit_data(5);
    const Response wr = server.submit(make_request(0, Op::write, 128, data)).get();
    EXPECT_EQ(wr.status, Verify_status::ok);
    EXPECT_TRUE(wr.payload.empty());

    const Response rd = server.submit(make_request(0, Op::read, 128)).get();
    EXPECT_EQ(rd.status, Verify_status::ok);
    EXPECT_EQ(rd.payload, data);
    server.drain();
    server.stop();
}

TEST(ServeServer, LifecycleStopIsTerminalAndIdempotent)
{
    Server server(make_key(1), make_key(2), {.tenants = 1});
    EXPECT_THROW((void)server.submit(make_request(0, Op::write, 0, unit_data(1))),
                 Seda_error);  // not started
    server.start();
    EXPECT_THROW(server.start(), Seda_error);  // once only
    (void)server.submit(make_request(0, Op::write, 0, unit_data(1))).get();
    server.stop();
    server.stop();  // idempotent
    EXPECT_THROW((void)server.submit(make_request(0, Op::read, 0)), Seda_error);
    EXPECT_THROW(server.start(), Seda_error);  // terminal: no restart
    server.drain();  // everything accepted has completed; returns immediately
}

TEST(ServeServer, MalformedRequestsAreRejectedAtSubmit)
{
    Server server(make_key(1), make_key(2), {.tenants = 1});
    server.start();
    // Unknown tenant, misaligned address, wrong payload size.
    EXPECT_THROW((void)server.submit(make_request(7, Op::write, 0, unit_data(1))),
                 Seda_error);
    EXPECT_THROW((void)server.submit(make_request(0, Op::write, 3, unit_data(1))),
                 Seda_error);
    EXPECT_THROW((void)server.submit(make_request(0, Op::write, 0, {1, 2, 3})),
                 Seda_error);
    // The server still serves after rejecting garbage.
    const auto data = unit_data(2);
    EXPECT_EQ(server.submit(make_request(0, Op::write, 0, data)).get().status,
              Verify_status::ok);
}

TEST(ServeServer, ZeroMaxBatchIsRejectedAtConstruction)
{
    EXPECT_THROW(Server(make_key(1), make_key(2), {.tenants = 1, .max_batch = 0}),
                 Seda_error);
}

TEST(ServeServer, PoisonReadFailsItsRequestOnlyAndCountsRejected)
{
    Server server(make_key(1), make_key(2), {.tenants = 1, .workers = 2});
    server.start();

    const auto data = unit_data(3);
    (void)server.submit(make_request(0, Op::write, 0, data)).get();

    // A read of a never-written unit is a usage error: it must surface on
    // THAT request's future and leave the server serving.  Submit the good
    // and poisoned reads together so they coalesce into one batch and
    // exercise the per-request fallback.
    auto good1 = server.submit(make_request(0, Op::read, 0));
    auto poison = server.submit(make_request(0, Op::read, 64 * 99));
    auto good2 = server.submit(make_request(0, Op::read, 0));

    EXPECT_EQ(good1.get().status, Verify_status::ok);
    EXPECT_THROW((void)poison.get(), Seda_error);
    EXPECT_EQ(good2.get().payload, data);

    server.drain();
    const auto stats = server.stats();
    EXPECT_EQ(stats.tenants[0].rejected, 1u);
    EXPECT_EQ(stats.tenants[0].reads, 3u);
    EXPECT_EQ(stats.tenants[0].ok, 3u);  // 1 write + 2 good reads
}

TEST(ServeServer, ConcurrentClosedLoopClientsStayConsistent)
{
    constexpr u32 k_clients = 6;
    constexpr std::size_t k_rounds = 40;
    Server server(make_key(4), make_key(5), {.tenants = 2, .workers = 4});
    server.start();

    std::vector<std::thread> clients;
    std::vector<u64> failures(k_clients, 0);
    for (u32 c = 0; c < k_clients; ++c)
        clients.emplace_back([&server, &failures, c] {
            const u32 tenant = c % 2;
            const Addr base = static_cast<Addr>(c) * 8 * k_unit_bytes;
            std::vector<u8> expected;
            Rng rng(c + 100);
            for (std::size_t r = 0; r < k_rounds; ++r) {
                const Addr addr = base + (rng.next_below(8)) * k_unit_bytes;
                std::vector<u8> data(k_unit_bytes);
                for (auto& b : data) b = rng.next_byte();
                if (server.submit(make_request(tenant, Op::write, addr, data))
                        .get()
                        .status != Verify_status::ok)
                    ++failures[c];
                const Response rd =
                    server.submit(make_request(tenant, Op::read, addr)).get();
                if (rd.status != Verify_status::ok || rd.payload != data) ++failures[c];
            }
        });
    for (auto& t : clients) t.join();
    server.drain();

    for (u32 c = 0; c < k_clients; ++c) EXPECT_EQ(failures[c], 0u) << "client " << c;

    const auto stats = server.stats();
    const auto totals = stats.totals();
    EXPECT_EQ(stats.requests, k_clients * k_rounds * 2);
    EXPECT_EQ(totals.writes, k_clients * k_rounds);
    EXPECT_EQ(totals.reads, k_clients * k_rounds);
    EXPECT_EQ(totals.ok, k_clients * k_rounds * 2);
    EXPECT_EQ(totals.bytes, k_clients * k_rounds * 2 * k_unit_bytes);
    EXPECT_EQ(totals.mac_mismatch + totals.replay_detected + totals.rejected, 0u);
    EXPECT_EQ(stats.latency_us.count(), k_clients * k_rounds * 2);
}

TEST(ServeServer, BatchedResultsMatchSerialMemoryState)
{
    // The same mixed write stream through (a) the batching server and
    // (b) a serial Secure_memory with the tenant's derived keys must leave
    // bit-identical stored state -- batching is a scheduling choice, not a
    // semantic one.
    Server server(make_key(6), make_key(7), {.tenants = 1, .workers = 3});
    server.start();

    std::vector<std::future<Response>> pending;
    std::vector<core::Secure_memory::Unit_write> serial_batch;
    std::vector<std::vector<u8>> payloads;
    payloads.reserve(32);
    for (u64 i = 0; i < 32; ++i) payloads.push_back(unit_data(1000 + i));
    for (u64 i = 0; i < 32; ++i) {
        const Addr addr = (i % 16) * k_unit_bytes;  // half the writes supersede
        pending.push_back(server.submit(make_request(0, Op::write, addr, payloads[i])));
        serial_batch.push_back({addr, payloads[i], 0, 0, 0});
    }
    for (auto& f : pending) EXPECT_EQ(f.get().status, Verify_status::ok);
    server.drain();

    core::Secure_memory serial(server.tenant(0).enc_key(), server.tenant(0).mac_key());
    serial.write_units(serial_batch);

    for (u64 i = 0; i < 16; ++i) {
        const Addr addr = i * k_unit_bytes;
        const auto served = server.tenant(0).session().memory().snapshot(addr);
        const auto expected = serial.snapshot(addr);
        EXPECT_EQ(served.ciphertext, expected.ciphertext) << "unit " << i;
        EXPECT_EQ(served.mac, expected.mac) << "unit " << i;
    }
}

TEST(ServeServer, LifetimeCyclesResolveEveryFuture)
{
    // Construct, start, submit one window, wait, destroy -- 200 times.  The
    // destructor must wait for the completion drainer (a pool task that
    // uses the server's members) before any member dies.
    for (u64 cycle = 0; cycle < 200; ++cycle) {
        Server server(make_key(1), make_key(2), {.tenants = 2, .workers = 1 + cycle % 2});
        server.start();
        std::vector<std::future<Response>> pending;
        for (u64 i = 0; i < 8; ++i)
            pending.push_back(server.submit(
                make_request(static_cast<u32>(i % 2), Op::write, i * k_unit_bytes, unit_data(i))));
        pending.push_back(server.submit(make_request(0, Op::read, 0)));
        for (auto& f : pending) ASSERT_EQ(f.get().status, Verify_status::ok) << "cycle " << cycle;
    }
}

TEST(ServeServer, StopWithWindowsQueuedResolvesEveryFuture)
{
    // max_batch 1 turns every request into its own window, so stop() lands
    // with windows still queued for dispatch and for delivery.  Every future
    // must be ready once stop() (or the destructor) returns.
    for (u64 cycle = 0; cycle < 20; ++cycle) {
        std::vector<std::future<Response>> pending;
        {
            Server server(make_key(3), make_key(4), {.tenants = 1, .workers = 2, .max_batch = 1});
            server.start();
            for (u64 i = 0; i < 256; ++i)
                pending.push_back(server.submit(
                    make_request(0, Op::write, (i % 32) * k_unit_bytes, unit_data(i))));
            if (cycle % 2 == 0) {
                server.stop();
                EXPECT_EQ(server.stats().requests, pending.size());
            }
        }
        for (auto& f : pending) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
            EXPECT_EQ(f.get().status, Verify_status::ok);
        }
    }
}

}  // namespace
}  // namespace seda::serve
