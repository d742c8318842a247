// Model_binding: the address->context convention and the touched-unit
// working sets that make "weights written once at model load" workable
// even for gather-dominated models.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "infer/model_binding.h"
#include "models/zoo.h"

namespace seda::infer {
namespace {

constexpr Bytes k_unit = Model_binding::k_unit_bytes;

const Model_binding& lenet_binding()
{
    static const Model_binding binding(models::lenet(), accel::Npu_config::server());
    return binding;
}

void expect_sorted_unique_aligned(std::span<const Addr> set)
{
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
    for (const Addr a : set) EXPECT_EQ(a % k_unit, 0u);
}

TEST(InferModelBinding, WorkingSetsAreSortedUniqueAndAligned)
{
    const auto& b = lenet_binding();
    expect_sorted_unique_aligned(b.weight_load_units());
    expect_sorted_unique_aligned(b.act_prefill_units());
    expect_sorted_unique_aligned(b.input_units());
    EXPECT_FALSE(b.weight_load_units().empty());
    EXPECT_FALSE(b.input_units().empty());
}

TEST(InferModelBinding, InputUnitsAreActPrefillSubset)
{
    const auto& b = lenet_binding();
    const auto prefill = b.act_prefill_units();
    EXPECT_TRUE(std::includes(prefill.begin(), prefill.end(), b.input_units().begin(),
                              b.input_units().end()));
}

TEST(InferModelBinding, WeightContextNamesTheOwningLayer)
{
    const auto& b = lenet_binding();
    const auto& starts = b.sim().map.weight_addr;
    for (const Addr a : b.weight_load_units()) {
        EXPECT_EQ(b.classify(a), Model_binding::Region::weight);
        const auto ctx = b.context(a);
        EXPECT_EQ(ctx.fmap_idx, 0u);
        ASSERT_LT(ctx.layer_id, starts.size());
        EXPECT_EQ(starts[ctx.layer_id] + static_cast<Addr>(ctx.blk_idx) * k_unit, a);
    }
    // The first unit of a layer's weight region is block 0 of that layer.
    const auto ctx0 = b.context(starts[0]);
    EXPECT_EQ(ctx0.layer_id, 0u);
    EXPECT_EQ(ctx0.blk_idx, 0u);
}

TEST(InferModelBinding, ActivationContextIsRegionTagged)
{
    const auto& b = lenet_binding();
    for (const Addr a : b.act_prefill_units()) {
        const auto region = b.classify(a);
        ASSERT_TRUE(region == Model_binding::Region::act0 ||
                    region == Model_binding::Region::act1);
        const auto ctx = b.context(a);
        EXPECT_EQ(ctx.fmap_idx, 1u);
        const u32 r = region == Model_binding::Region::act0 ? 0u : 1u;
        EXPECT_EQ(ctx.layer_id, 0x8000'0000u | r);
        EXPECT_EQ(accel::Memory_map::k_act_base[r] + static_cast<Addr>(ctx.blk_idx) * k_unit,
                  a);
    }
}

TEST(InferModelBinding, ContextIsAPureFunctionOfTheAddress)
{
    // The producer/consumer agreement: the same address yields the same
    // context fields on every call -- this is the whole convention.
    const auto& b = lenet_binding();
    for (const Addr a : {b.weight_load_units().front(), b.act_prefill_units().front(),
                         b.act_prefill_units().back()}) {
        const auto c1 = b.context(a);
        const auto c2 = b.context(a);
        EXPECT_EQ(c1.layer_id, c2.layer_id);
        EXPECT_EQ(c1.fmap_idx, c2.fmap_idx);
        EXPECT_EQ(c1.blk_idx, c2.blk_idx);
    }
}

TEST(InferModelBinding, OutOfRegionAndMisalignedAddressesThrow)
{
    const auto& b = lenet_binding();
    EXPECT_THROW((void)b.classify(0x7000'0000ULL), Seda_error);  // between regions
    EXPECT_THROW((void)b.classify(accel::Memory_map::k_act_base[0] + 1), Seda_error);
    // Inside a bound region but touched by no trace: no slot, no context.
    EXPECT_THROW((void)b.context(accel::Memory_map::k_act_base[0] + 100'000 * k_unit),
                 Seda_error);
}

TEST(InferModelBinding, GatherModelLoadsOnlyTouchedWeightUnits)
{
    // DLRM's embedding tables dwarf what one batch's gathers touch: the
    // load set must be the touched subset, not the whole region.
    const Model_binding b(models::dlrm(), accel::Npu_config::server());
    Bytes table_bytes = 0;
    for (const auto& l : b.sim().model->layers) table_bytes += l.weight_bytes();
    const Bytes load_bytes = b.weight_load_units().size() * k_unit;
    EXPECT_LT(load_bytes, table_bytes / 10);
    EXPECT_FALSE(b.weight_load_units().empty());
}

TEST(InferModelBinding, EveryTraceReadIsCoveredByTheWorkingSets)
{
    // The no-never-written-read guarantee: every block any trace reads is
    // in weight_load or act_prefill.
    for (const char* name : {"lenet", "resnet18", "transformer_fwd"}) {
        const Model_binding b(models::model_by_name(name),
                              accel::Npu_config::server());
        const auto weights = b.weight_load_units();
        const auto acts = b.act_prefill_units();
        for (const auto& layer : b.sim().layers) {
            for (const auto& r : layer.trace) {
                if (r.is_write) continue;
                accel::for_each_block(r, [&](Addr a) {
                    const auto& set =
                        b.classify(a) == Model_binding::Region::weight ? weights : acts;
                    EXPECT_TRUE(std::binary_search(set.begin(), set.end(), a))
                        << name << " layer " << layer.layer_id << " addr " << a;
                });
            }
        }
    }
}

TEST(InferModelBinding, SlotTableIsExactlyTheTouchedUnits)
{
    // Every unit a trace range covers, reads and writes, and nothing else:
    // the table scales with touched units, not with the address extent
    // (DLRM's tables span 5.28 M units).  Each range resolves to runs that
    // tile it in order, and each unit's slot holds its own address.
    const struct {
        const char* model;
        std::size_t units;
    } cases[] = {{"lenet", 1'056}, {"resnet18", 198'391}, {"dlrm", 100'198}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.model);
        const Model_binding b(models::model_by_name(c.model), accel::Npu_config::server());
        std::vector<Addr> touched;
        for (const auto& layer : b.sim().layers)
            for (const auto& r : layer.trace)
                accel::for_each_block(r, [&](Addr a) { touched.push_back(a); });
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
        const auto units = b.units();
        EXPECT_TRUE(std::equal(units.begin(), units.end(), touched.begin(), touched.end()));
        EXPECT_EQ(units.size(), c.units);

        u64 misplaced = 0;
        for (const auto& layer : b.sim().layers)
            for (const auto& r : layer.trace) {
                Addr next = r.first_block();
                b.for_each_run(next, r.end_block(), [&](const Model_binding::Unit_run& run) {
                    misplaced += run.addr != next;
                    for (u32 k = 0; k < run.units; ++k)
                        misplaced += units[run.first_slot + k] != run.addr + k * k_unit;
                    next = run.addr + run.units * k_unit;
                });
                misplaced += next != r.end_block();
            }
        EXPECT_EQ(misplaced, 0u);
    }
}

TEST(InferModelBinding, RunsSplitWhereARangeCrossesAWeightLayerBorder)
{
    // A weight range over the last two units of one layer and the first two
    // of the next: two runs, the second restarting blk_idx at its layer.
    // Layers without weights own no region, so the pair is the first two
    // adjacent weight owners of at least two units each.
    accel::Model_sim sim = lenet_binding().sim();
    const auto& layers = sim.model->layers;
    std::vector<u32> owners;
    for (u32 i = 0; i < layers.size(); ++i)
        if (layers[i].weight_bytes() > 0) owners.push_back(i);
    u32 before = 0;
    u32 after = 0;
    for (std::size_t i = 0; i + 1 < owners.size() && after == 0; ++i)
        if (layers[owners[i]].weight_bytes() > k_unit &&
            layers[owners[i + 1]].weight_bytes() > k_unit) {
            before = owners[i];
            after = owners[i + 1];
        }
    ASSERT_NE(after, 0u);
    const Addr border = sim.map.weight_addr[after];
    accel::Access_range r;
    r.begin = border - 2 * k_unit;
    r.length = 4 * k_unit;
    r.tensor = accel::Tensor_kind::weight;
    sim.layers.front().trace.push_back(r);
    const Model_binding b(std::move(sim));

    std::vector<Model_binding::Unit_run> runs;
    b.for_each_run(r.first_block(), r.end_block(),
                   [&](const Model_binding::Unit_run& run) { runs.push_back(run); });
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].units, 2u);
    EXPECT_EQ(runs[0].ctx.layer_id, before);
    EXPECT_EQ(runs[1].addr, border);
    EXPECT_EQ(runs[1].units, 2u);
    EXPECT_EQ(runs[1].first_slot, runs[0].first_slot + 2);
    EXPECT_EQ(runs[1].ctx.layer_id, after);
    EXPECT_EQ(runs[1].ctx.blk_idx, 0u);
    // Counting blk_idx up through a run agrees with each unit's own context.
    for (const auto& run : runs)
        for (u32 k = 0; k < run.units; ++k) {
            const auto ctx = b.context(run.addr + k * k_unit);
            EXPECT_EQ(ctx.layer_id, run.ctx.layer_id);
            EXPECT_EQ(ctx.fmap_idx, 0u);
            EXPECT_EQ(ctx.blk_idx, run.ctx.blk_idx + k);
        }
}

}  // namespace
}  // namespace seda::infer
