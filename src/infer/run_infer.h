// Multi-tenant secure-inference driver: the closed loop behind
// `seda_cli infer` and the determinism contract CI byte-diffs.
//
// One run builds the model binding once, then gives every tenant its own
// engine (own seed, own mirror) over its own protected memory and replays
// `inferences` passes per tenant concurrently -- either straight into
// per-tenant Secure_sessions sharing one crypto pool (Replay_path::session,
// the throughput path) or through a serve::Server front end as request
// traffic (Replay_path::serve, the full-stack path).
//
// Determinism contract (what `--json` prints): per-tenant and merged
// Infer_stats are pure functions of (model, npu, seed, tenants,
// inferences) -- identical at any --jobs value AND across the two replay
// paths, because both transports are bit-identical to serial I/O and each
// tenant's stream is independent.  Wall-clock throughput is measured and
// reported separately (stderr), never part of the deterministic set.
#pragma once

#include <vector>

#include "accel/layer.h"
#include "accel/npu_config.h"
#include "infer/infer_stats.h"

namespace seda::infer {

enum class Replay_path : u8 { session, serve };

[[nodiscard]] constexpr const char* to_string(Replay_path p)
{
    switch (p) {
        case Replay_path::session: return "session";
        case Replay_path::serve: return "serve";
    }
    return "?";
}

struct Infer_config {
    std::size_t tenants = 1;
    std::size_t inferences = 1;     ///< per tenant (`--requests` on the CLI)
    std::size_t jobs = 1;           ///< crypto workers (0 = hardware)
    Replay_path path = Replay_path::serve;
    u64 seed = 0x5EDA;
    std::size_t max_wait_us = 0;    ///< serve-path coalescing linger (Server_config)
};

struct Infer_result {
    std::vector<Infer_stats> per_tenant;  ///< indexed by tenant id
    Infer_stats merged;                   ///< layer-aligned sum over tenants
    u64 verification_failures = 0;        ///< mac_mismatch + replay over everything
    u64 data_mismatches = 0;              ///< ok reads that differed from the mirror
    double wall_seconds = 0.0;            ///< load + all inferences (timing-bound)

    /// Plaintext bytes moved through the protected path (load included).
    [[nodiscard]] Bytes protected_bytes() const
    {
        return merged.totals().bytes + merged.load.bytes;
    }

    [[nodiscard]] double mb_per_second() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(protected_bytes()) / 1e6 / wall_seconds
                   : 0.0;
    }
};

/// Per-tenant engine seed: an injective SplitMix64 mix of (seed, tenant),
/// so no two tenants' payload streams collide.
[[nodiscard]] u64 tenant_seed(u64 seed, u32 tenant);

/// Runs the full loop: binding, per-tenant engines on their own threads,
/// load + `inferences` passes each, merge in tenant order.
[[nodiscard]] Infer_result run_infer(const accel::Model_desc& model,
                                     const accel::Npu_config& npu,
                                     const Infer_config& cfg);

}  // namespace seda::infer
