// Memory-protection scheme interface: rewrites the accelerator's data trace
// into the full off-chip request stream (data + security metadata), and
// reports the quantities the performance model prices:
//
//  * timed_stream    - demand-path requests (data, read amplification, MAC
//                      lines) that the DRAM simulator prices cycle by cycle.
//  * prefetch_bytes  - VN / integrity-tree traffic; AES-CTR pad generation
//                      lets the engine fetch counters ahead of data, so the
//                      bytes count fully as traffic but only a calibrated
//                      fraction of their transfer time hits the critical
//                      path (protect/calibration.h).
//  * mac_demand_misses - dependent metadata fetches that stall verification.
//  * verify_events   - integrity checks performed (unit granularity).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/accel_sim.h"
#include "common/types.h"
#include "dram/dram_sim.h"
#include "protect/calibration.h"

namespace seda::protect {

struct Layer_protect_result {
    std::vector<dram::Request> timed_stream;
    Bytes prefetch_bytes = 0;
    u64 mac_demand_misses = 0;
    u64 verify_events = 0;
    Cycles fixed_cycles = 0;

    [[nodiscard]] Bytes timed_bytes() const
    {
        return static_cast<Bytes>(timed_stream.size()) * k_block_bytes;
    }
    [[nodiscard]] Bytes total_traffic_bytes() const { return timed_bytes() + prefetch_bytes; }
};

class Protection_scheme {
public:
    virtual ~Protection_scheme() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Called once before the first layer of a model run.
    virtual void begin_model(const accel::Model_sim& sim) { (void)sim; }

    /// Rewrites one layer's data trace into the protected request stream.
    [[nodiscard]] virtual Layer_protect_result transform_layer(const accel::Layer_sim& layer) = 0;

    /// Called after the last layer; emits end-of-run work (dirty metadata
    /// flushes, final model-MAC checks).
    [[nodiscard]] virtual Layer_protect_result end_model() { return {}; }

    /// AES engine-equivalents this scheme provisions (0 = no encryption).
    /// All protected schemes are provisioned to match link bandwidth by
    /// default -- the hardware *cost* of doing so differs (Fig. 4) and the
    /// ablation bench exercises under-provisioning.
    [[nodiscard]] virtual int crypto_engine_equivalents(const accel::Npu_config& npu) const;
};

// ---------------------------------------------------------------- utils ----

/// Appends every 64 B block of `r` to `out` with the given tag, marking
/// blocks outside [r.begin, r.begin+r.length) as amplification (they are
/// fetched only to complete protection units).
void emit_blocks(std::vector<dram::Request>& out, const accel::Access_range& r,
                 bool is_write, dram::Traffic_tag tag);

/// Appends the 64 B requests covering one protection unit
/// [unit_addr, unit_addr + unit_bytes): blocks inside [demand_lo, demand_hi)
/// are demand data (writes stay writes), the rest amplification fetched only
/// to complete the unit.  One resize + tight fill per unit instead of
/// per-block push_back -- the trace-level analogue of the crypto layer's
/// batched base OTPs, shared by every unit-granular scheme.
void append_unit_requests(std::vector<dram::Request>& out, Addr unit_addr,
                          Bytes unit_bytes, Addr demand_lo, Addr demand_hi,
                          bool is_write);

/// Bytes a range wastes when fetched at `unit_bytes` granularity: the
/// distance between the unit-aligned span and the block-aligned span.
[[nodiscard]] Bytes unit_amplification_bytes(const accel::Access_range& r, Bytes unit_bytes);

/// The unprotected baseline: data trace passes through untouched.
class Baseline_scheme final : public Protection_scheme {
public:
    [[nodiscard]] std::string name() const override { return "baseline"; }
    [[nodiscard]] Layer_protect_result transform_layer(const accel::Layer_sim& layer) override;
    [[nodiscard]] int crypto_engine_equivalents(const accel::Npu_config&) const override
    {
        return 0;
    }
};

}  // namespace seda::protect
