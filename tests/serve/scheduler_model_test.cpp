// Differential model check of the serve scheduler.  Seeded op streams --
// writes, reads, reads of never-written units, write/read flips on one
// address and duplicate writes, over 2-4 tenants -- run through
//   (a) Batch_scheduler::dispatch, cut into random windows of 1-64
//       requests, each followed by deliver(), on pools of 1 and 3 workers,
//   (b) a live Server with a random max_batch, fed by one pipelined
//       producer, and
//   (c) the same Server fed by one producer thread per tenant, so the
//       admission order across tenants changes from run to run while each
//       tenant's own order stays fixed,
// with tamper and rollback faults applied between windows.  A plaintext
// map is the reference: every op's result and every tenant's
// Tenant_counters (failure records in order included) must equal it.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "serve/batch_scheduler.h"
#include "serve/server.h"

namespace seda::serve {
namespace {

using core::Secure_memory;
using core::Verify_status;

constexpr Bytes k_unit_bytes = 64;
constexpr u64 k_seeds = 40;
constexpr std::size_t k_ops = 300;
constexpr u64 k_addrs = 12;      ///< addresses per tenant that ops write and read
constexpr u64 k_cold_addrs = 2;  ///< further addresses that are only ever read

std::vector<u8> make_key(u64 seed)
{
    Rng rng(seed);
    std::vector<u8> key(16);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

const std::vector<u8> k_master_enc = make_key(1);
const std::vector<u8> k_master_mac = make_key(2);

/// One op with the completion the model expects for it.
struct Model_op {
    u32 tenant = 0;
    Op op = Op::write;
    u64 unit = 0;              ///< address index within the tenant
    std::vector<u8> payload;   ///< write plaintext
    bool rejected = false;     ///< expected to complete with Seda_error
    Verify_status status = Verify_status::ok;
    std::vector<u8> read_back; ///< an ok read's plaintext
};

enum class Fault_kind : u8 { snapshot, tamper, rollback };

struct Fault {
    Fault_kind kind = Fault_kind::snapshot;
    u32 tenant = 0;
    u64 unit = 0;
    u8 byte = 0;  ///< tamper: ciphertext byte to flip
};

/// The ops between two fault points, then the faults applied at the point.
struct Segment {
    std::vector<Model_op> ops;
    std::vector<Fault> faults;
};

struct Stream {
    u32 tenants = 0;
    std::size_t ops = 0;
    std::vector<Segment> segments;
    std::vector<Tenant_counters> counters;  ///< the model's row per tenant
};

/// The positional-MAC context of a unit: fixed per address, so a read
/// binds the context its write used.
u32 layer_of(u32 tenant) { return tenant + 1; }
u32 fmap_of(u64 unit) { return static_cast<u32>(unit % 3); }
u32 blk_of(u64 unit) { return static_cast<u32>(unit); }

/// The reference model of one unit.
struct Unit_model {
    std::vector<u8> plaintext;
    u64 version = 0;           ///< writes so far (0: never written)
    Verify_status fault = Verify_status::ok;
    u64 snapshot_version = 0;  ///< version at the last snapshot (0: none)
};

class Stream_builder {
public:
    /// A stream over 2 or 3 tenants, drawn from the seed.
    explicit Stream_builder(u64 seed) : rng_(seed)
    {
        init(2 + static_cast<u32>(rng_.next_below(2)));
    }
    Stream_builder(u64 seed, u32 tenants) : rng_(seed) { init(tenants); }

    Stream build()
    {
        while (s_.ops < k_ops) {
            const u32 t = static_cast<u32>(rng_.next_below(s_.tenants));
            const u64 unit = rng_.next_below(k_addrs);
            const u64 kind = rng_.next_below(100);
            if (kind < 35) {
                emit(t, Op::write, unit);
            } else if (kind < 70) {
                emit(t, Op::read, unit);
            } else if (kind < 78) {
                emit(t, Op::read, k_addrs + rng_.next_below(k_cold_addrs));
            } else if (kind < 90) {  // a write/read flip on one address
                const bool write_first = rng_.next_below(2) == 0;
                emit(t, write_first ? Op::write : Op::read, unit);
                emit(t, write_first ? Op::read : Op::write, unit);
            } else {  // a duplicate write
                emit(t, Op::write, unit);
                emit(t, Op::write, unit);
            }
            if (rng_.next_below(100) < 6) fault_point();
        }
        return std::move(s_);
    }

private:
    void init(u32 tenants)
    {
        s_.tenants = tenants;
        s_.counters.resize(s_.tenants);
        units_.assign(s_.tenants, std::vector<Unit_model>(k_addrs + k_cold_addrs));
        s_.segments.emplace_back();
    }

    void emit(u32 t, Op op, u64 unit)
    {
        Model_op m;
        m.tenant = t;
        m.op = op;
        m.unit = unit;
        Unit_model& u = units_[t][unit];
        Tenant_counters& c = s_.counters[t];
        if (op == Op::write) {
            m.payload.resize(k_unit_bytes);
            for (auto& b : m.payload) b = rng_.next_byte();
            u.plaintext = m.payload;
            ++u.version;
            u.fault = Verify_status::ok;
            ++c.writes;
            ++c.ok;
            c.bytes += k_unit_bytes;
        } else if (u.version == 0) {
            m.rejected = true;
            ++c.reads;
            ++c.rejected;
        } else if (u.fault != Verify_status::ok) {
            m.status = u.fault;
            ++c.reads;
            ++(u.fault == Verify_status::mac_mismatch ? c.mac_mismatch : c.replay_detected);
            c.failures.push_back(
                {unit * k_unit_bytes, layer_of(t), fmap_of(unit), blk_of(unit), u.fault});
        } else {
            m.read_back = u.plaintext;
            ++c.reads;
            ++c.ok;
            c.bytes += k_unit_bytes;
            c.payload_fold ^= fnv1a64(u.plaintext.data(), u.plaintext.size());
        }
        s_.segments.back().ops.push_back(std::move(m));
        ++s_.ops;
    }

    /// Ends the current segment with 1-3 faults on clean written units.
    void fault_point()
    {
        auto& faults = s_.segments.back().faults;
        for (u64 n = 1 + rng_.next_below(3); n > 0; --n) {
            const auto kind = static_cast<Fault_kind>(rng_.next_below(3));
            std::vector<std::pair<u32, u64>> eligible;
            for (u32 t = 0; t < s_.tenants; ++t)
                for (u64 a = 0; a < k_addrs; ++a) {
                    const Unit_model& u = units_[t][a];
                    const bool clean = u.version != 0 && u.fault == Verify_status::ok;
                    const bool stale_snapshot =
                        u.snapshot_version != 0 && u.snapshot_version < u.version;
                    if (clean && (kind != Fault_kind::rollback || stale_snapshot))
                        eligible.emplace_back(t, a);
                }
            if (eligible.empty()) continue;
            const auto [t, a] = eligible[rng_.next_below(eligible.size())];
            Unit_model& u = units_[t][a];
            if (kind == Fault_kind::snapshot) u.snapshot_version = u.version;
            if (kind == Fault_kind::tamper) u.fault = Verify_status::mac_mismatch;
            if (kind == Fault_kind::rollback) u.fault = Verify_status::replay_detected;
            faults.push_back({kind, t, a, static_cast<u8>(rng_.next_below(k_unit_bytes))});
        }
        s_.segments.emplace_back();
    }

    Rng rng_;
    Stream s_;
    std::vector<std::vector<Unit_model>> units_;
};

Request make_request(const Model_op& m)
{
    Request r;
    r.tenant_id = m.tenant;
    r.op = m.op;
    r.addr = m.unit * k_unit_bytes;
    r.payload = m.payload;
    r.layer_id = layer_of(m.tenant);
    r.fmap_idx = fmap_of(m.unit);
    r.blk_idx = blk_of(m.unit);
    return r;
}

void expect_result(const Model_op& m, std::future<Response>& done, std::size_t op_index)
{
    if (m.rejected) {
        EXPECT_THROW((void)done.get(), Seda_error) << "op " << op_index;
        return;
    }
    const Response r = done.get();
    EXPECT_EQ(r.status, m.status) << "op " << op_index;
    EXPECT_EQ(r.payload, m.read_back) << "op " << op_index;
}

/// Attacker snapshots by (tenant, unit); they persist across fault points.
using Snapshots = std::map<std::pair<u32, u64>, Secure_memory::Stored_unit>;

/// Applies one fault point to the tenants' memories.
void apply_faults(std::span<const Fault> faults, const std::vector<Secure_memory*>& memories,
                  Snapshots& snapshots)
{
    for (const Fault& f : faults) {
        Secure_memory& mem = *memories[f.tenant];
        const Addr addr = f.unit * k_unit_bytes;
        switch (f.kind) {
            case Fault_kind::snapshot: snapshots[{f.tenant, f.unit}] = mem.snapshot(addr); break;
            case Fault_kind::tamper: mem.tamper(addr, f.byte, 0x5A); break;
            case Fault_kind::rollback: mem.rollback(addr, snapshots.at({f.tenant, f.unit})); break;
        }
    }
}

/// Every field of a counter row, failure records in order, as one string
/// (so a mismatch prints as a readable diff).
std::string describe(const Tenant_counters& c)
{
    std::ostringstream os;
    os << "writes " << c.writes << " reads " << c.reads << " ok " << c.ok << " mac "
       << c.mac_mismatch << " replay " << c.replay_detected << " rejected " << c.rejected
       << " bytes " << c.bytes << " fold " << c.payload_fold << " failures";
    for (const Failure_record& f : c.failures)
        os << " {" << f.addr << ' ' << f.layer_id << ' ' << f.fmap_idx << ' ' << f.blk_idx
           << ' ' << static_cast<int>(f.status) << '}';
    return os.str();
}

void expect_counters(const Serve_stats& stats, const Stream& s)
{
    EXPECT_EQ(stats.requests, s.ops);
    ASSERT_GE(stats.tenants.size(), s.tenants);
    for (u32 t = 0; t < s.tenants; ++t)
        EXPECT_EQ(describe(stats.tenants[t]), describe(s.counters[t])) << "tenant " << t;
}

/// Path (a): the stream cut into random windows of 1-64 requests, each a
/// Batch_scheduler::dispatch on the test thread, then deliver().
void run_dispatch(const Stream& s, u64 seed, std::size_t workers)
{
    runtime::Thread_pool pool(workers);
    Tenant_table tenants;
    std::vector<Secure_memory*> memories;
    for (u32 t = 0; t < s.tenants; ++t) {
        tenants.add(k_master_enc, k_master_mac, {}, pool);
        memories.push_back(&tenants.find(t)->session().memory());
    }
    Batch_scheduler scheduler(tenants);
    Serve_stats stats;
    Snapshots snapshots;
    Rng cuts(seed * 31 + workers);
    std::size_t op_index = 0;
    for (const Segment& seg : s.segments) {
        for (std::size_t begin = 0; begin < seg.ops.size();) {
            const std::size_t n =
                std::min<std::size_t>(1 + cuts.next_below(64), seg.ops.size() - begin);
            std::vector<Request> window;
            std::vector<std::future<Response>> done;
            for (std::size_t i = begin; i < begin + n; ++i) {
                window.push_back(make_request(seg.ops[i]));
                done.push_back(window.back().reply.emplace().get_future());
            }
            scheduler.dispatch(window, stats);
            deliver(window);
            for (std::size_t i = 0; i < n; ++i)
                expect_result(seg.ops[begin + i], done[i], op_index++);
            if (::testing::Test::HasFailure()) return;
            begin += n;
        }
        apply_faults(seg.faults, memories, snapshots);
    }
    expect_counters(stats, s);
}

/// Path (b): a live Server with a random max_batch; one producer submits a
/// whole segment without waiting, then drains before the faults land.
void run_server(const Stream& s, u64 seed)
{
    Rng rng(seed * 31 + 7);
    Server server(k_master_enc, k_master_mac,
                  {.tenants = s.tenants,
                   .workers = rng.next_below(2) == 0 ? 1u : 3u,
                   .max_batch = 1 + rng.next_below(64)});
    server.start();
    std::vector<Secure_memory*> memories;
    for (u32 t = 0; t < s.tenants; ++t) memories.push_back(&server.tenant(t).session().memory());
    Snapshots snapshots;
    std::size_t op_index = 0;
    for (const Segment& seg : s.segments) {
        std::vector<std::future<Response>> done;
        for (const Model_op& m : seg.ops) done.push_back(server.submit(make_request(m)));
        server.drain();
        for (std::size_t i = 0; i < seg.ops.size(); ++i)
            expect_result(seg.ops[i], done[i], op_index++);
        if (::testing::Test::HasFailure()) return;
        // Drained: the scheduler thread is parked in the admission queue.
        apply_faults(seg.faults, memories, snapshots);
    }
    server.stop();
    expect_counters(server.stats(), s);
}

/// Path (c): a live Server fed by one producer thread per tenant.  Each
/// thread submits its tenant's ops of a segment in stream order, then the
/// test drains before the faults land.
void run_server_producers(const Stream& s, u64 seed)
{
    Rng rng(seed * 31 + 11);
    Server server(k_master_enc, k_master_mac,
                  {.tenants = s.tenants,
                   .workers = rng.next_below(2) == 0 ? 1u : 3u,
                   .max_batch = 1 + rng.next_below(64)});
    server.start();
    std::vector<Secure_memory*> memories;
    for (u32 t = 0; t < s.tenants; ++t) memories.push_back(&server.tenant(t).session().memory());
    Snapshots snapshots;
    std::size_t op_index = 0;
    for (const Segment& seg : s.segments) {
        std::vector<std::future<Response>> done(seg.ops.size());
        std::vector<std::thread> producers;
        for (u32 t = 0; t < s.tenants; ++t)
            producers.emplace_back([&, t] {
                for (std::size_t i = 0; i < seg.ops.size(); ++i)
                    if (seg.ops[i].tenant == t) done[i] = server.submit(make_request(seg.ops[i]));
            });
        for (std::thread& p : producers) p.join();
        server.drain();
        for (std::size_t i = 0; i < seg.ops.size(); ++i)
            expect_result(seg.ops[i], done[i], op_index++);
        if (::testing::Test::HasFailure()) return;
        apply_faults(seg.faults, memories, snapshots);
    }
    server.stop();
    expect_counters(server.stats(), s);
}

TEST(SchedulerModel, StreamsReachEveryOutcome)
{
    // The check below is only as strong as its streams: across the seeds
    // they must produce every completion the scheduler can give.
    Tenant_counters all;
    std::size_t fault_points = 0;
    for (u64 seed = 0; seed < k_seeds; ++seed) {
        const Stream s = Stream_builder(seed).build();
        EXPECT_GE(s.ops, k_ops);
        for (const Tenant_counters& c : s.counters) all += c;
        for (const Segment& seg : s.segments) fault_points += !seg.faults.empty();
    }
    EXPECT_GT(all.ok, 0u);
    EXPECT_GT(all.rejected, 0u);
    EXPECT_GT(all.mac_mismatch, 0u);
    EXPECT_GT(all.replay_detected, 0u);
    EXPECT_GT(fault_points, k_seeds);
}

TEST(SchedulerModel, DispatchMatchesTheModelAtEverySeed)
{
    for (const std::size_t workers : {1u, 3u})
        for (u64 seed = 0; seed < k_seeds; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(workers) +
                         " pool workers");
            run_dispatch(Stream_builder(seed).build(), seed, workers);
            if (HasFailure()) return;
        }
}

TEST(SchedulerModel, ServerMatchesTheModelAtEverySeed)
{
    for (u64 seed = 0; seed < k_seeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        run_server(Stream_builder(seed).build(), seed);
        if (HasFailure()) return;
    }
}

TEST(SchedulerModel, ConcurrentProducersMatchTheModelAtEverySeed)
{
    for (u64 seed = 0; seed < k_seeds; ++seed) {
        const auto tenants = static_cast<u32>(2 + seed % 3);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(tenants) +
                     " producer threads");
        run_server_producers(Stream_builder(seed, tenants).build(), seed);
        if (HasFailure()) return;
    }
}

}  // namespace
}  // namespace seda::serve
