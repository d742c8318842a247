// Trace_player: expands a layer's compressed DRAM trace into protected-unit
// batches and replays them through a Unit_sink in trace order.
//
// The accelerator touches memory in long contiguous stripes; the secure
// data path works in 64 B protection units.  The player is the adapter:
//
//   * ranges expand with the same arithmetic as accel::for_each_block
//     (tests/infer/ holds the equivalence on ragged, misaligned and
//     overlapping ranges), preserving trace order INCLUDING duplicates --
//     a halo re-read shows up as the same unit twice in one read batch,
//     and a psum spill as write/read flips over one stripe;
//   * each range resolves to Model_binding::Unit_runs (one per range
//     unless it crosses a weight-layer border), so a unit's slot and MAC
//     context come from its run, not from a per-unit lookup;
//   * consecutive same-direction ranges coalesce into one bulk dispatch;
//     a direction flip flushes (read-your-writes: the write batch holding
//     a unit completes before any read of it is issued), as does the
//     max_batch_units cap;
//   * every dispatched unit is accounted per tensor kind: status counts,
//     ok bytes, a payload XOR-fold, and mirror mismatches (the player
//     keeps the caller's write mirror current, last-write-wins, exactly
//     like stage_writes's supersede rule).
//
// The write mirror is flat storage indexed by the binding's slots: per
// slot the last plaintext written, its fnv1a64 computed once when it is
// written, and a written flag.  Every ok read compares all of its bytes
// with the mirror; equal bytes fold the cached hash, and a differing or
// never-written unit folds the hash of the bytes actually returned and
// counts a data mismatch -- so reads, which outnumber writes ~5:1 on
// resnet18, hash nothing on a clean replay.
//
// Determinism: batches, counters and folds are a pure function of the
// trace and the payload function -- independent of the sink's worker
// count (the session and server transports are both bit-identical to
// serial I/O), which is what lets CI byte-diff `seda_cli infer --json`
// across --jobs values.
//
// Thread-safety: one player belongs to one engine/thread; the staging
// scratch is reused across layers (cleared, not freed).
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "accel/accel_sim.h"
#include "core/secure_memory.h"
#include "infer/infer_stats.h"
#include "infer/model_binding.h"
#include "infer/unit_sink.h"

namespace seda::infer {

class Trace_player {
public:
    /// Default dispatch cap: bounds the staging scratch at 4096 units
    /// (256 KiB of payload) while keeping bulk calls deep enough to feed
    /// the bulk crypto pipelines.
    static constexpr std::size_t k_default_max_batch_units = 4096;

    /// The engine's record of the last plaintext written per unit, one
    /// entry per slot of the binding's unit table.
    class Mirror {
    public:
        explicit Mirror(const Model_binding& binding);
        ~Mirror();
        Mirror(const Mirror&) = delete;
        Mirror& operator=(const Mirror&) = delete;

        /// Records `plaintext` as the slot's live value (last write wins).
        void record(u32 slot, std::span<const u8> plaintext);

        /// True when the slot was written and `got` equals its live value.
        [[nodiscard]] bool holds(u32 slot, std::span<const u8> got) const
        {
            const auto live = unit(slot);
            return written_[slot] != 0 && std::equal(got.begin(), got.end(), live.begin(),
                                                     live.end());
        }

        /// fnv1a64 of the slot's live value, cached by record().
        [[nodiscard]] u64 hash(u32 slot) const
        {
            u64 h = 0;
            std::memcpy(&h, hashes_.subspan(slot * sizeof(u64), sizeof(u64)).data(), sizeof h);
            return h;
        }

        /// Units written at least once.
        [[nodiscard]] std::size_t written() const
        {
            return static_cast<std::size_t>(std::count(written_.begin(), written_.end(), 1));
        }

    private:
        [[nodiscard]] std::span<u8> unit(u32 slot) const
        {
            return units_.subspan(std::size_t{slot} * Model_binding::k_unit_bytes,
                                  Model_binding::k_unit_bytes);
        }

        std::span<u8> map_;      ///< units_, hashes_, written_ back to back
        std::span<u8> units_;    ///< k_unit_bytes per slot
        std::span<u8> hashes_;   ///< one u64 per slot
        std::span<u8> written_;  ///< 0/1 per slot
    };

    /// Fills a fresh write payload for the unit at `addr`.
    using Payload_fn = std::function<void(Addr, std::span<u8>)>;

    explicit Trace_player(const Model_binding& binding,
                          std::size_t max_batch_units = k_default_max_batch_units);

    /// Replays one layer's trace through `sink`, accumulating into `stats`
    /// and keeping `mirror` current.  `fresh_payload` provides the bytes of
    /// every trace write (the "computed" ofmap / spilled psums).  Every
    /// unit the trace touches must be in the binding's slot table.
    void play_layer(const accel::Layer_sim& layer, Unit_sink& sink, Mirror& mirror,
                    const Payload_fn& fresh_payload, Layer_infer_stats& stats);

    /// Batched protected writes of an explicit unit list (model load /
    /// input staging), accounted into `counters` and mirrored.
    void stage_units(std::span<const Addr> addrs, Unit_sink& sink, Mirror& mirror,
                     const Payload_fn& fresh_payload, Unit_counters& counters);

    /// Appends every unit `r` covers, in trace order -- the protection-unit
    /// view of accel::for_each_block, exposed for the equivalence tests.
    static void expand_range(const accel::Access_range& r, std::vector<Addr>& out);

private:
    /// One unit of the pending batch, resolved from its run.
    struct Pending_unit {
        Addr addr = 0;
        u32 slot = 0;
        Model_binding::Unit_context ctx;
        Unit_counters* counters = nullptr;
    };

    /// Queues units [first, end) in address order, flushing at the cap.
    void append(Addr first, Addr end, Unit_counters& counters, Unit_sink& sink,
                Mirror& mirror, const Payload_fn& fresh_payload);
    void flush(Unit_sink& sink, Mirror& mirror, const Payload_fn& fresh_payload);
    void dispatch_writes(Unit_sink& sink, Mirror& mirror, const Payload_fn& fresh_payload);
    void dispatch_reads(Unit_sink& sink, const Mirror& mirror);
    void note_failure(std::size_t i);  ///< flight-recorder detect for reads_[i]

    const Model_binding& binding_;
    std::size_t max_batch_units_;

    // Pending same-direction batch (cleared per flush, capacity kept).
    bool pending_is_write_ = false;
    std::vector<Pending_unit> pending_;

    // Dispatch scratch.
    std::vector<u8> payload_buf_;
    std::vector<core::Secure_memory::Unit_write> writes_;
    std::vector<core::Secure_memory::Unit_read> reads_;
    std::vector<core::Verify_status> statuses_;
};

}  // namespace seda::infer
