// Serving-layer statistics: per-tenant counters plus the global sample set.
//
// The counters split into two determinism classes, and the split is
// load-bearing for CI:
//
//   * deterministic  - writes/reads/ok/mac_mismatch/replay/rejected/bytes
//                      and payload_fold depend only on the request streams
//                      (closed-loop clients with disjoint address ranges),
//                      NOT on scheduling, coalescing, or worker count.
//                      `seda_cli loadgen --json` prints exactly these, so
//                      the output is byte-diffable across --jobs values.
//   * timing-bound   - batches (how traffic happened to coalesce) and
//                      latency_us (TSC ticks).  Human-readable output
//                      only; never part of the JSON contract.
//
// payload_fold is an XOR of FNV-1a digests of successful read payloads:
// XOR is commutative, so the fold is independent of completion order --
// the same trick SeDA's layer MACs use (crypto/mac.h, Xor_mac_accumulator).
#pragma once

#include <vector>

#include "common/types.h"
#include "core/verify_status.h"
#include "obs/histogram.h"

namespace seda::serve {

/// One verification failure with full positional attribution: which unit,
/// under which bound MAC context (layer / fmap / blk), with which outcome.
/// The scheduler completes a tenant's requests in admission order, so a
/// tenant whose failing probes come from a single submitter observes its
/// failure records exactly in submission order at ANY worker count -- the
/// property the attack campaign's exact-attribution ledger relies on.
struct Failure_record {
    Addr addr = 0;
    u32 layer_id = 0;
    u32 fmap_idx = 0;
    u32 blk_idx = 0;
    core::Verify_status status = core::Verify_status::ok;

    [[nodiscard]] bool operator==(const Failure_record&) const = default;
};

/// Counters for one tenant's completed requests.
struct Tenant_counters {
    u64 writes = 0;
    u64 reads = 0;
    u64 ok = 0;
    u64 mac_mismatch = 0;
    u64 replay_detected = 0;
    u64 rejected = 0;      ///< completed with an exception (e.g. never-written read)
    u64 bytes = 0;         ///< payload bytes moved (written in + read out, ok only)
    u64 payload_fold = 0;  ///< XOR of fnv1a64(payload) over ok reads
    /// Every non-ok verification this tenant's requests produced, in
    /// completion order (== admission order per tenant).  Deterministic
    /// like the counters above: which requests fail is a property of the
    /// request streams and the adversary, not of batching or --jobs.
    std::vector<Failure_record> failures;

    /// Accumulates another row (counts add, folds XOR, failures append).
    Tenant_counters& operator+=(const Tenant_counters& o)
    {
        writes += o.writes;
        reads += o.reads;
        ok += o.ok;
        mac_mismatch += o.mac_mismatch;
        replay_detected += o.replay_detected;
        rejected += o.rejected;
        bytes += o.bytes;
        payload_fold ^= o.payload_fold;
        failures.insert(failures.end(), o.failures.begin(), o.failures.end());
        return *this;
    }

    [[nodiscard]] bool operator==(const Tenant_counters&) const = default;
};

/// Whole-server view: one Tenant_counters per tenant plus global samples.
struct Serve_stats {
    std::vector<Tenant_counters> tenants;
    u64 requests = 0;  ///< requests dispatched (deterministic)
    u64 batches = 0;   ///< bulk session calls issued (timing-dependent)
    /// Submits rejected at the door because the named tenant was evicted
    /// (deterministic given the submit stream; the request was never
    /// admitted, so it appears in no tenant row).
    u64 evicted_rejects = 0;
    /// Per-request latency from the request's submit stamp to the end of
    /// the flush that completed it, both TSC reads (submitted requests
    /// only).  The promise settles after that, on the completion drainer,
    /// so the hand-off to the client is not in it.  Log-scale bucketed:
    /// memory stays bounded at ANY request count, deltas merge by bucket
    /// addition, and p50/p99/p999 read back exact to ~3% bucket resolution
    /// over ALL of time -- unlike the capped sample ring this replaces,
    /// whose percentiles described only a recent window.
    obs::Log_histogram latency_us;

    /// Sums every tenant row (folds XOR together, as the fold order-freedom
    /// allows).
    [[nodiscard]] Tenant_counters totals() const
    {
        Tenant_counters t;
        for (const Tenant_counters& c : tenants) t += c;
        return t;
    }

    /// Accumulates `delta` (produced by one dispatch) into this view.
    void merge(const Serve_stats& delta)
    {
        if (tenants.size() < delta.tenants.size()) tenants.resize(delta.tenants.size());
        for (std::size_t i = 0; i < delta.tenants.size(); ++i)
            tenants[i] += delta.tenants[i];
        requests += delta.requests;
        batches += delta.batches;
        evicted_rejects += delta.evicted_rejects;
        latency_us.merge(delta.latency_us);
    }
};

}  // namespace seda::serve
