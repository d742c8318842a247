// Closed-loop, deterministic load generator for the serving layer.
//
// Models the north-star traffic shape -- many tenants, many concurrent
// clients each -- as a closed loop: every client submits one request,
// blocks on its future, checks the result, then issues the next.  Offered
// load therefore tracks service capacity (classic closed-loop behaviour),
// and the admission queue's backpressure is exercised for real.
//
// Determinism contract (what CI byte-diffs): each client's request stream
// is a pure function of (seed, tenant, client) -- op choices, slot
// choices, and payload bytes all come from its own seeded Rng, and every
// client owns a disjoint slot range inside its tenant's memory.  So each
// read's expected plaintext depends only on that client's own (ordered)
// history, never on cross-client timing: counters, payload folds, and
// mismatch totals are identical at any --jobs value, any queue capacity,
// any coalescing.  Wall-clock numbers (throughput, latency percentiles)
// are measured, reported, and excluded from the deterministic set.
//
// Each client verifies end to end: response status must be ok and read
// payloads must equal the client's local mirror of its own writes --
// catching any cross-tenant or cross-client bleed the crypto layer missed.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "serve/serve_stats.h"

namespace seda::serve {

struct Loadgen_config {
    std::size_t tenants = 2;
    std::size_t clients = 4;           ///< concurrent closed-loop clients per tenant
    std::size_t requests = 64;         ///< requests per client
    std::size_t jobs = 1;              ///< server crypto workers (0 = hardware)
    std::size_t max_wait_us = 0;       ///< coalescing linger (Server_config::max_wait_us)
    u64 seed = 0x5EDA;
    Bytes unit_bytes = 64;
    std::size_t units_per_client = 16; ///< disjoint slots each client owns
};

struct Loadgen_result {
    Serve_stats stats;          ///< the server's view (deterministic counters + latencies)
    u64 total_requests = 0;
    u64 status_failures = 0;    ///< responses with a non-ok status (expected 0)
    u64 data_mismatches = 0;    ///< ok reads whose payload != the client mirror (expected 0)
    double wall_seconds = 0.0;  ///< submit of first request to drain (timing-bound)

    [[nodiscard]] double requests_per_second() const
    {
        return wall_seconds > 0.0 ? static_cast<double>(total_requests) / wall_seconds
                                  : 0.0;
    }
};

/// Seed of one client's private Rng: an injective mix of (seed, tenant,
/// client) through SplitMix64, so streams never collide or correlate.
[[nodiscard]] u64 client_seed(u64 seed, u32 tenant, u32 client);

/// Expands 16 deterministic master-key bytes from (seed, role tag): the
/// seeded-run convention the loadgen and the inference driver
/// (infer::run_infer) share, so a fixed seed names a fixed server.
[[nodiscard]] std::vector<u8> demo_master_key(u64 seed, u64 tag);

/// Runs the full closed loop: build a Server per `cfg`, fan out
/// tenants x clients client threads, drain, and collect both stat classes.
[[nodiscard]] Loadgen_result run_loadgen(const Loadgen_config& cfg);

}  // namespace seda::serve
