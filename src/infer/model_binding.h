// Model_binding: a DNN model's off-chip footprint bound onto protected
// units of one tenant's Secure_memory.
//
// The accelerator simulator (accel/accel_sim.h) lays a model out with
// accel::Memory_map -- per-layer weight regions from address 0, two
// ping-pong activation regions -- and emits per-layer compressed access
// traces over that layout.  This class is the join point between that
// address space and the secure data path: every 64 B trace block becomes
// one protection unit, and the MAC context each unit binds (Alg. 2's
// layer/fmap/blk fields) is a PURE FUNCTION OF THE ADDRESS, so the
// producer of a block (layer i's ofmap write-back, or the weight loader)
// and every later consumer (layer i+1's ifmap reads, halo re-reads,
// weight re-streams) agree on the context without any side channel.
//
// Binding convention (documented because tests and the engine both rely
// on it):
//   weight unit k of layer L  ->  layer_id = L,              fmap_idx = 0
//   activation unit k, region r -> layer_id = 0x8000'0000|r, fmap_idx = 1
//   blk_idx = k (the unit's index within its region) in both cases.
//
// Slot table.  The traces are fixed once the model is bound, so the
// binding lays out, once, a sorted table of every unit any trace range
// touches (reads and writes).  A unit's index in that table is its SLOT:
// per-tenant state about units (the engine's write mirror) is flat storage
// indexed by slot, so it scales with the units the traces touch, not with
// the address extent -- DLRM's tables span 5.28 M units of which its
// traces touch 100 k.  Because every unit of a trace range is in the
// table, a range is a run of consecutive slots, and within one context
// region (one layer's weights, one activation region) its contexts share
// layer_id/fmap_idx and count blk_idx up by one: the replay resolves one
// Unit_run per range instead of one context per unit.
//
// The binding also precomputes the three touched-unit working sets the
// engine's lifecycle needs -- DLRM-class models make this mandatory: their
// embedding tables span hundreds of MB of which a trace gathers only a few
// thousand rows, so "load the weights" must mean the union of weight
// blocks the traces actually read, not the whole region.
#pragma once

#include <span>
#include <vector>

#include "accel/accel_sim.h"
#include "common/types.h"

namespace seda::infer {

class Model_binding {
public:
    /// One protection unit = one 64 B trace block (k_block_bytes).
    static constexpr Bytes k_unit_bytes = k_block_bytes;

    /// Runs trace generation for (model, npu) and indexes the result.
    Model_binding(accel::Model_desc model, const accel::Npu_config& npu);
    /// Indexes an already-simulated model (shares the trace with callers).
    explicit Model_binding(accel::Model_sim sim);

    [[nodiscard]] const accel::Model_sim& sim() const { return sim_; }

    enum class Region : u8 { weight, act0, act1 };

    /// The MAC context fields a protected op on `unit_addr` binds.
    struct Unit_context {
        u32 layer_id = 0;
        u32 fmap_idx = 0;
        u32 blk_idx = 0;
    };

    /// Consecutive units in one context region: unit k sits at
    /// `addr + k * k_unit_bytes`, in slot `first_slot + k`, and binds `ctx`
    /// with `blk_idx + k`.
    struct Unit_run {
        Addr addr = 0;
        u32 first_slot = 0;
        u32 units = 0;
        Unit_context ctx;
    };

    /// Which region a unit-aligned address lives in; throws Seda_error for
    /// an address outside every bound region (a trace/layout bug).
    [[nodiscard]] Region classify(Addr unit_addr) const;

    /// Calls fn(run) for the runs covering units [first, end) in address
    /// order -- one run per range unless it crosses a weight-layer border.
    /// Throws Seda_error for a unit outside every region or outside the
    /// slot table.
    template <typename Fn>
    void for_each_run(Addr first, Addr end, Fn&& fn) const
    {
        for (Addr a = first; a < end;) {
            const Unit_run run = run_at(a, end);
            fn(run);
            a += run.units * k_unit_bytes;
        }
    }

    /// The address-derived context (see the binding convention above): the
    /// first unit's context of the run at `unit_addr`.  Throws Seda_error
    /// like for_each_run.
    [[nodiscard]] Unit_context context(Addr unit_addr) const
    {
        return run_at(unit_addr, unit_addr + k_unit_bytes).ctx;
    }

    /// The slot table: sorted, unique units any trace range touches.  Slot
    /// s holds unit `units()[s]`.
    [[nodiscard]] std::span<const Addr> units() const { return units_; }

    /// Sorted, unique weight-region units any layer trace reads: the
    /// model-load working set ("weights written once at model load").
    [[nodiscard]] std::span<const Addr> weight_load_units() const
    {
        return weight_load_units_;
    }

    /// Sorted, unique activation-region units any layer trace reads.
    /// Pre-filling these at load guarantees no replayed read ever hits a
    /// never-written unit (padded ifmap rows and graph seams are host
    /// DMA-filled in a real system).
    [[nodiscard]] std::span<const Addr> act_prefill_units() const
    {
        return act_prefill_units_;
    }

    /// Sorted, unique units layer 0 reads as its ifmap: the model INPUT,
    /// rewritten with fresh payload before every inference.
    [[nodiscard]] std::span<const Addr> input_units() const { return input_units_; }

private:
    /// The longest run that starts at `unit_addr`, stays in its context
    /// region and ends at or before the unit-aligned `end`.
    [[nodiscard]] Unit_run run_at(Addr unit_addr, Addr end) const;
    void index();

    accel::Model_sim sim_;
    Addr weight_region_end_ = 0;        ///< block-aligned end of the last weight region
    std::vector<Addr> units_;           ///< the slot table
    std::vector<Addr> weight_load_units_;
    std::vector<Addr> act_prefill_units_;
    std::vector<Addr> input_units_;
};

}  // namespace seda::infer
