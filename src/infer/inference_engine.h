// Inference_engine: the load/infer/verify lifecycle of one model on one
// tenant's protected memory.
//
// Lifecycle (mirrors how a secure accelerator deployment actually moves
// data, Sec. IV-A's serving shape):
//
//   load(sink)   - once: writes the weight working set (every weight unit
//                  the traces read -- DLRM's multi-hundred-MB tables load
//                  only their gathered rows) and pre-fills the activation
//                  units any layer reads, so padded rows and graph seams
//                  never surface as never-written units.
//   infer(sink)  - per request: stages fresh model input over layer 0's
//                  ifmap units, then replays every layer's trace in order
//                  -- weight re-streams, ifmap slabs with halo re-reads,
//                  psum spills, ofmap write-backs -- as protected traffic.
//   stats()      - per-layer, per-tensor-kind verification accounting
//                  (infer_stats.h); failures() aggregates the acceptance
//                  gate "zero verification failures".
//
// Every payload written is a deterministic function of (seed, epoch,
// address), and the engine mirrors its own writes, so each ok read is also
// checked byte-for-byte against what the protected path must return --
// the same end-to-end discipline as serve's closed-loop loadgen.  The
// mirror is flat storage over the binding's slot table (one 64 B value,
// its cached fnv1a64 and a written flag per touched unit, ~73 B), sized
// when the engine is built, so it scales with the units the traces touch.
//
// One engine is one logical tenant and is single-threaded; concurrency
// comes from running engines for different tenants on different threads
// (run_infer.h) over a shared crypto pool.
#pragma once

#include <span>

#include "common/types.h"
#include "infer/infer_stats.h"
#include "infer/model_binding.h"
#include "infer/trace_player.h"
#include "infer/unit_sink.h"

namespace seda::infer {

struct Engine_config {
    u64 seed = 0x5EDA;                   ///< payload-stream seed (per tenant)
    std::size_t max_batch_units = 4096;  ///< Trace_player dispatch cap
};

class Inference_engine {
public:
    /// `binding` is shared, immutable trace/layout state; it must outlive
    /// the engine (all tenants of one model share one binding).
    explicit Inference_engine(const Model_binding& binding, Engine_config cfg = {});

    /// Writes the weight working set and the activation pre-fill through
    /// `sink`.  Must be called exactly once, before infer().
    void load(Unit_sink& sink);

    /// One inference: stage input, replay every layer.  Requires load().
    void infer(Unit_sink& sink);

    [[nodiscard]] bool loaded() const { return loaded_; }
    [[nodiscard]] const Infer_stats& stats() const { return stats_; }
    [[nodiscard]] const Model_binding& binding() const { return binding_; }

private:
    void fill_payload(Addr addr, std::span<u8> out) const;

    const Model_binding& binding_;
    Engine_config cfg_;
    Trace_player player_;
    Trace_player::Mirror mirror_;
    Infer_stats stats_;
    u64 epoch_ = 0;  ///< bumped per phase so every write's payload is fresh
    bool loaded_ = false;
};

}  // namespace seda::infer
