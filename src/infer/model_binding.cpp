#include "infer/model_binding.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"

namespace seda::infer {

namespace {

using accel::Memory_map;

/// Extent of one activation region (the ping-pong bases are this far apart).
constexpr Bytes k_act_region_span = Memory_map::k_act_base[1] - Memory_map::k_act_base[0];

/// Sorted, unique units covered by the trace ranges `pick` accepts.  The
/// ranges are sorted and merged as block intervals, so the cost is a sort
/// of the ranges plus one pass over the units, not a sort of the units.
template <typename Pick>
std::vector<Addr> touched_units(const accel::Model_sim& sim, Pick pick)
{
    std::vector<std::pair<Addr, Addr>> spans;
    for (const accel::Layer_sim& layer : sim.layers)
        for (const accel::Access_range& r : layer.trace)
            if (pick(layer, r)) spans.emplace_back(r.first_block(), r.end_block());
    std::sort(spans.begin(), spans.end());
    std::vector<Addr> units;
    Addr next = 0;  // first unit not yet emitted
    for (const auto& [first, end] : spans) {
        for (Addr a = std::max(first, next); a < end; a += Model_binding::k_unit_bytes)
            units.push_back(a);
        next = std::max(next, end);
    }
    return units;
}

}  // namespace

Model_binding::Model_binding(accel::Model_desc model, const accel::Npu_config& npu)
    : sim_(accel::simulate_model(std::move(model), npu))
{
    index();
}

Model_binding::Model_binding(accel::Model_sim sim) : sim_(std::move(sim)) { index(); }

Model_binding::Region Model_binding::classify(Addr unit_addr) const
{
    require(unit_addr % k_unit_bytes == 0, "Model_binding: address is not unit-aligned");
    if (unit_addr < weight_region_end_) return Region::weight;
    for (int r = 0; r < 2; ++r) {
        const Addr base = Memory_map::k_act_base[r];
        if (unit_addr >= base && unit_addr < base + k_act_region_span)
            return r == 0 ? Region::act0 : Region::act1;
    }
    throw Seda_error("Model_binding: address outside every bound region");
}

Model_binding::Unit_run Model_binding::run_at(Addr unit_addr, Addr end) const
{
    require(end > unit_addr && end % k_unit_bytes == 0,
            "Model_binding: a run needs a unit-aligned end past its start");
    Unit_run run;
    run.addr = unit_addr;
    Addr base = 0;
    Addr region_end = 0;
    const Region region = classify(unit_addr);
    if (region == Region::weight) {
        // Owning layer: the last weight region starting at or before the
        // address.  weight_addr is sorted (regions are packed in order), so
        // the next larger start is where the owner's region ends.
        const auto& starts = sim_.map.weight_addr;
        const auto it = std::upper_bound(starts.begin(), starts.end(), unit_addr);
        const auto layer = static_cast<u32>(std::distance(starts.begin(), it) - 1);
        base = starts[layer];
        region_end = it == starts.end() ? weight_region_end_ : *it;
        run.ctx = {layer, 0, 0};
    } else {
        const int r = region == Region::act0 ? 0 : 1;
        base = Memory_map::k_act_base[r];
        region_end = base + k_act_region_span;
        run.ctx = {0x8000'0000u | static_cast<u32>(r), 1, 0};
    }
    run.ctx.blk_idx = static_cast<u32>((unit_addr - base) / k_unit_bytes);

    const u64 units = (std::min(end, region_end) - unit_addr) / k_unit_bytes;
    const auto slot = std::lower_bound(units_.begin(), units_.end(), unit_addr);
    const auto first = static_cast<std::size_t>(slot - units_.begin());
    // The table is sorted and unique, so `units` entries from `first` that
    // end on the run's last address are exactly the run's units.
    require(slot != units_.end() && *slot == unit_addr && units <= units_.size() - first &&
                units_[first + units - 1] == unit_addr + (units - 1) * k_unit_bytes,
            "Model_binding: unit outside the slot table");
    run.first_slot = static_cast<u32>(first);
    run.units = static_cast<u32>(units);
    return run;
}

void Model_binding::index()
{
    // End of the packed weight area: last region start + its aligned size.
    const auto& model = *sim_.model;
    weight_region_end_ = 0;
    if (!model.layers.empty()) {
        weight_region_end_ = sim_.map.weight_addr.back() +
                             align_up(model.layers.back().weight_bytes(), k_unit_bytes);
    }

    using accel::Access_range;
    using accel::Layer_sim;
    using accel::Tensor_kind;
    units_ = touched_units(sim_, [](const Layer_sim&, const Access_range&) { return true; });
    require(units_.size() <= std::numeric_limits<u32>::max(),
            "Model_binding: more touched units than 32-bit slots");
    weight_load_units_ = touched_units(sim_, [](const Layer_sim&, const Access_range& r) {
        return !r.is_write && r.tensor == Tensor_kind::weight;
    });
    act_prefill_units_ = touched_units(sim_, [](const Layer_sim&, const Access_range& r) {
        return !r.is_write && r.tensor != Tensor_kind::weight;
    });
    input_units_ = touched_units(sim_, [](const Layer_sim& layer, const Access_range& r) {
        return !r.is_write && layer.layer_id == 0 && r.tensor == Tensor_kind::ifmap;
    });
    // The convention only works if every read lands in a bound region;
    // classify() throws on a layout bug, so probe the set extremes now.
    for (const auto* set : {&weight_load_units_, &act_prefill_units_}) {
        if (set->empty()) continue;
        (void)classify(set->front());
        (void)classify(set->back());
    }
}

}  // namespace seda::infer
