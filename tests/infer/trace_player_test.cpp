// Trace_player: range -> protected-unit expansion must match
// accel::for_each_block exactly -- on ragged lengths, misaligned begins,
// and overlapping halo ranges (duplicates preserved in trace order) -- and
// batches must split exactly at direction flips and the dispatch cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/trace_player.h"
#include "models/zoo.h"

namespace seda::infer {
namespace {

using accel::Access_range;
using accel::Tensor_kind;

constexpr Bytes k_unit = Model_binding::k_unit_bytes;
constexpr Addr k_act0 = accel::Memory_map::k_act_base[0];

/// The reference expansion the player must reproduce.
std::vector<Addr> reference_blocks(const Access_range& r)
{
    std::vector<Addr> out;
    accel::for_each_block(r, [&](Addr a) { out.push_back(a); });
    return out;
}

Access_range make_range(Addr begin, Bytes length, bool is_write,
                        Tensor_kind tensor = Tensor_kind::ifmap)
{
    Access_range r;
    r.begin = begin;
    r.length = length;
    r.is_write = is_write;
    r.tensor = tensor;
    return r;
}

TEST(InferTracePlayer, ExpansionMatchesForEachBlockOnRaggedRanges)
{
    // Misaligned begins, lengths that straddle block boundaries, and a
    // range ending exactly on one.
    const Access_range cases[] = {
        make_range(k_act0 + 0, 64, false),         // exactly one block
        make_range(k_act0 + 1, 64, false),         // misaligned: two blocks
        make_range(k_act0 + 63, 2, false),         // straddles one boundary
        make_range(k_act0 + 130, 700, true),       // long + misaligned
        make_range(k_act0 + 64, 1, false),         // sub-block tail
        make_range(k_act0 + 4096, 64 * 17, true),  // aligned run
    };
    for (const Access_range& r : cases) {
        std::vector<Addr> got;
        Trace_player::expand_range(r, got);
        EXPECT_EQ(got, reference_blocks(r)) << "begin=" << r.begin << " len=" << r.length;
        EXPECT_EQ(got.size(), r.block_count());
        for (const Addr a : got) EXPECT_EQ(a % k_unit, 0u);
    }
}

TEST(InferTracePlayer, OverlappingHaloRangesKeepDuplicates)
{
    // Two consecutive ifmap slabs sharing 2 rows of 64 B: the overlap
    // blocks must appear twice, in trace order -- that is the halo re-read
    // the protection path re-verifies.
    const auto tile0 = make_range(k_act0, 6 * 64, false);
    const auto tile1 = make_range(k_act0 + 4 * 64, 6 * 64, false);
    std::vector<Addr> got;
    Trace_player::expand_range(tile0, got);
    Trace_player::expand_range(tile1, got);
    ASSERT_EQ(got.size(), 12u);
    EXPECT_EQ(got[4], got[6]);  // first shared block, re-read by tile 1
    EXPECT_EQ(got[5], got[7]);
    std::vector<Addr> expected = reference_blocks(tile0);
    const auto t1 = reference_blocks(tile1);
    expected.insert(expected.end(), t1.begin(), t1.end());
    EXPECT_EQ(got, expected);
}

/// Sink that records batch boundaries and serves reads from a serial
/// store -- the reference semantics the player's mirror must agree with.
class Recording_sink final : public Unit_sink {
public:
    struct Batch {
        bool is_write = false;
        std::vector<Addr> addrs;
    };

    void write_units(std::span<const core::Secure_memory::Unit_write> batch) override
    {
        Batch b{true, {}};
        for (const auto& w : batch) {
            b.addrs.push_back(w.addr);
            store_[w.addr].assign(w.plaintext.begin(), w.plaintext.end());
        }
        batches.push_back(std::move(b));
    }

    void read_units(std::span<const core::Secure_memory::Unit_read> batch,
                    std::span<core::Verify_status> statuses) override
    {
        Batch b{false, {}};
        for (std::size_t i = 0; i < batch.size(); ++i) {
            b.addrs.push_back(batch[i].addr);
            const auto it = store_.find(batch[i].addr);
            require(it != store_.end(), "Recording_sink: read of never-written unit");
            std::copy(it->second.begin(), it->second.end(), batch[i].out.begin());
            statuses[i] = core::Verify_status::ok;
        }
        batches.push_back(std::move(b));
    }

    std::vector<Batch> batches;

private:
    std::unordered_map<Addr, std::vector<u8>> store_;
};

/// A tiny binding to resolve contexts (lenet's layout; traces are synthetic).
const Model_binding& test_binding()
{
    static const Model_binding binding(models::lenet(), accel::Npu_config::server());
    return binding;
}

Trace_player::Payload_fn seeded_payloads()
{
    return [](Addr a, std::span<u8> out) {
        u64 state = 0xF00D ^ a;
        for (auto& b : out) b = static_cast<u8>(splitmix64(state));
    };
}

TEST(InferTracePlayer, BatchesSplitAtDirectionFlipsOnly)
{
    // write x2, read x3 (overlapping), write x1: three batches, with the
    // duplicate read preserved inside the middle one.
    accel::Layer_sim layer;
    layer.trace = {
        make_range(k_act0, 4 * 64, true, Tensor_kind::ofmap),
        make_range(k_act0 + 8 * 64, 2 * 64, true, Tensor_kind::ofmap),
        make_range(k_act0, 2 * 64, false),
        make_range(k_act0 + 64, 3 * 64, false),  // overlaps the previous read
        make_range(k_act0 + 8 * 64, 64, false),
        make_range(k_act0 + 16 * 64, 64, true, Tensor_kind::ofmap),
    };

    Trace_player player(test_binding());
    Recording_sink sink;
    Trace_player::Mirror mirror(test_binding());
    Layer_infer_stats stats;
    player.play_layer(layer, sink, mirror, seeded_payloads(), stats);

    ASSERT_EQ(sink.batches.size(), 3u);
    EXPECT_TRUE(sink.batches[0].is_write);
    EXPECT_EQ(sink.batches[0].addrs.size(), 6u);
    EXPECT_FALSE(sink.batches[1].is_write);
    EXPECT_EQ(sink.batches[1].addrs.size(), 6u);  // 2 + 3 + 1, duplicate kept
    EXPECT_EQ(sink.batches[1].addrs[1], sink.batches[1].addrs[2]);  // halo re-read
    EXPECT_TRUE(sink.batches[2].is_write);

    // Reference: concatenated for_each_block per direction run.
    std::vector<Addr> reads;
    for (int i = 2; i <= 4; ++i) {
        const auto blocks = reference_blocks(layer.trace[static_cast<std::size_t>(i)]);
        reads.insert(reads.end(), blocks.begin(), blocks.end());
    }
    EXPECT_EQ(sink.batches[1].addrs, reads);

    // Replay through a serial store must agree with the player's mirror.
    EXPECT_EQ(stats.total().data_mismatches, 0u);
    EXPECT_EQ(stats.ofmap.writes, 7u);
    EXPECT_EQ(stats.ifmap.reads, 6u);
    EXPECT_EQ(stats.total().failures(), 0u);
}

TEST(InferTracePlayer, DispatchCapSplitsLongRangesWithoutReordering)
{
    accel::Layer_sim layer;
    layer.trace = {make_range(k_act0, 10 * 64, true, Tensor_kind::ofmap),
                   make_range(k_act0, 10 * 64, false)};

    Trace_player player(test_binding(), /*max_batch_units=*/4);
    Recording_sink sink;
    Trace_player::Mirror mirror(test_binding());
    Layer_infer_stats stats;
    player.play_layer(layer, sink, mirror, seeded_payloads(), stats);

    // 10 writes in caps of 4 -> 4+4+2, then reads likewise.
    ASSERT_EQ(sink.batches.size(), 6u);
    std::vector<Addr> write_addrs, read_addrs;
    for (const auto& b : sink.batches) {
        auto& dst = b.is_write ? write_addrs : read_addrs;
        EXPECT_LE(b.addrs.size(), 4u);
        dst.insert(dst.end(), b.addrs.begin(), b.addrs.end());
    }
    EXPECT_EQ(write_addrs, reference_blocks(layer.trace[0]));
    EXPECT_EQ(read_addrs, reference_blocks(layer.trace[1]));
    EXPECT_EQ(stats.total().data_mismatches, 0u);
}

TEST(InferTracePlayer, InBatchDuplicateWritesFollowSupersedeOrder)
{
    // The same unit written twice in one batch: serial semantics keep the
    // LAST payload, which both the recording sink (in-order store) and the
    // player's mirror must reproduce -- then the read agrees byte-for-byte.
    accel::Layer_sim layer;
    layer.trace = {make_range(k_act0, 2 * 64, true, Tensor_kind::ofmap),
                   make_range(k_act0, 64, true, Tensor_kind::ofmap),
                   make_range(k_act0, 2 * 64, false)};

    Trace_player player(test_binding());
    Recording_sink sink;
    Trace_player::Mirror mirror(test_binding());
    Layer_infer_stats stats;
    u64 counter = 0;
    // Payloads differ per CALL, so the superseding write really differs.
    const Trace_player::Payload_fn fresh = [&counter](Addr a, std::span<u8> out) {
        u64 state = a ^ (++counter << 32);
        for (auto& b : out) b = static_cast<u8>(splitmix64(state));
    };
    player.play_layer(layer, sink, mirror, fresh, stats);

    ASSERT_EQ(sink.batches.size(), 2u);
    EXPECT_EQ(sink.batches[0].addrs.size(), 3u);  // one write batch, dup inside
    EXPECT_EQ(stats.total().data_mismatches, 0u);
    EXPECT_EQ(stats.ifmap.reads, 2u);
    EXPECT_EQ(stats.total().failures(), 0u);
}

/// lenet's layout plus one read of act0 units 0-19, so every unit the
/// staging test writes has a slot (lenet's own traces stop at unit 18).
const Model_binding& staging_binding()
{
    static const Model_binding binding([] {
        accel::Model_sim sim = test_binding().sim();
        sim.layers.front().trace.push_back(make_range(k_act0, 20 * k_unit, false));
        return sim;
    }());
    return binding;
}

TEST(InferTracePlayer, StageUnitsWritesEveryAddressInOrder)
{
    Trace_player player(staging_binding(), /*max_batch_units=*/8);
    Recording_sink sink;
    Trace_player::Mirror mirror(staging_binding());
    Unit_counters counters;
    std::vector<Addr> addrs;
    for (Addr a = 0; a < 20; ++a) addrs.push_back(k_act0 + a * k_unit);
    player.stage_units(addrs, sink, mirror, seeded_payloads(), counters);

    ASSERT_EQ(sink.batches.size(), 3u);  // 8 + 8 + 4
    std::vector<Addr> seen;
    for (const auto& b : sink.batches) {
        EXPECT_TRUE(b.is_write);
        seen.insert(seen.end(), b.addrs.begin(), b.addrs.end());
    }
    EXPECT_EQ(seen, addrs);
    EXPECT_EQ(counters.writes, 20u);
    EXPECT_EQ(counters.bytes, 20u * k_unit);
    EXPECT_EQ(mirror.written(), 20u);
}

/// Serial store whose reads lie while still reporting ok: `flipped` comes
/// back with one byte changed, and a unit nobody wrote through it comes
/// back as a fixed pattern.  Records every returned unit.
class Lying_sink final : public Unit_sink {
public:
    explicit Lying_sink(Addr flipped) : flipped_(flipped) {}

    void write_units(std::span<const core::Secure_memory::Unit_write> batch) override
    {
        for (const auto& w : batch) store_[w.addr].assign(w.plaintext.begin(), w.plaintext.end());
    }

    void read_units(std::span<const core::Secure_memory::Unit_read> batch,
                    std::span<core::Verify_status> statuses) override
    {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto& r = batch[i];
            const auto it = store_.find(r.addr);
            if (it != store_.end())
                std::copy(it->second.begin(), it->second.end(), r.out.begin());
            else
                std::fill(r.out.begin(), r.out.end(), u8{0xA5});
            if (r.addr == flipped_) r.out[5] ^= 0x10;
            statuses[i] = core::Verify_status::ok;
            returned.push_back({r.addr, std::vector<u8>(r.out.begin(), r.out.end())});
        }
    }

    std::vector<std::pair<Addr, std::vector<u8>>> returned;

private:
    Addr flipped_;
    std::unordered_map<Addr, std::vector<u8>> store_;
};

TEST(InferTracePlayer, OkReadsThatDisagreeWithTheMirrorAreDataMismatches)
{
    // Four ofmap units written then read back as ifmap, one of them with a
    // flipped byte, plus a weight unit this player never wrote.
    const Addr flipped = k_act0 + 2 * k_unit;
    const Addr never_written = test_binding().weight_load_units().front();
    accel::Layer_sim layer;
    layer.trace = {make_range(k_act0, 4 * 64, true, Tensor_kind::ofmap),
                   make_range(k_act0, 4 * 64, false),
                   make_range(never_written, 64, false, Tensor_kind::weight)};

    Trace_player player(test_binding());
    Lying_sink sink(flipped);
    Trace_player::Mirror mirror(test_binding());
    Layer_infer_stats stats;
    player.play_layer(layer, sink, mirror, seeded_payloads(), stats);

    EXPECT_EQ(stats.ifmap.ok, 4u);
    EXPECT_EQ(stats.ifmap.data_mismatches, 1u);
    EXPECT_EQ(stats.weight.ok, 1u);
    EXPECT_EQ(stats.weight.data_mismatches, 1u);
    EXPECT_EQ(stats.ofmap.data_mismatches, 0u);
    EXPECT_EQ(stats.total().failures(), 0u);

    // The folds hash what the reads returned, not what the mirror holds.
    u64 ifmap_fold = 0;
    u64 weight_fold = 0;
    ASSERT_EQ(sink.returned.size(), 5u);
    for (const auto& [addr, bytes] : sink.returned)
        (addr == never_written ? weight_fold : ifmap_fold) ^= fnv1a64(bytes.data(), bytes.size());
    EXPECT_EQ(stats.ifmap.payload_fold, ifmap_fold);
    EXPECT_EQ(stats.weight.payload_fold, weight_fold);
}

}  // namespace
}  // namespace seda::infer
