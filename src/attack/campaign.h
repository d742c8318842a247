// Adversary-under-load campaign driver.
//
// One campaign runs a seeded Fault_plan against a LIVE serve::Server while
// legitimate traffic flows on every tenant: closed-loop background clients
// (loadgen-shaped) on all request tenants, optional inference engines
// replaying a DNN model on their own tenants, and an optional model
// hot-swap (evict_tenant + re-provision) under that continuing traffic.
// Faults reach the memory through the dram::Dram_tap seam (Fault_injector)
// -- never by pausing the server -- and per-victim prober threads bracket
// each fault with probe requests whose MAC context carries the plan's
// (layer, tensor kind) attribution.
//
// The Campaign_ledger then holds the driver to the paper's detection
// claims as EXACT bookkeeping, not statistics:
//
//   * every victim tenant's serve::Failure_record list equals the
//     plan-derived expectation element for element -- right unit, right
//     (layer, fmap, blk) context, right failure class, right order;
//   * every non-victim tenant's list is empty (zero false positives), and
//     with control_run on, every untouched tenant's FULL counter row is
//     byte-identical to a no-campaign run of the same seed;
//   * SECA probes on sparse plaintexts recover nothing under B-AES;
//   * every deterministic field of Campaign_result is independent of
//     --jobs, so `seda_cli attack --json` byte-diffs across worker counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "attack/fault_plan.h"
#include "common/types.h"
#include "infer/infer_stats.h"
#include "serve/serve_stats.h"

namespace seda::attack {

inline constexpr u32 k_no_tenant = 0xFFFF'FFFF;

struct Campaign_config {
    u64 seed = 0x5EDA;
    u32 tenants = 3;           ///< request tenants (0 = control/donor, rest victims)
    std::size_t faults = 6;
    std::vector<Fault_kind> kinds = {};  ///< restrict the plan (empty = all kinds)
    std::size_t clients = 2;   ///< background closed-loop clients per request tenant
    std::size_t requests = 16; ///< requests per background client
    std::size_t jobs = 1;      ///< server crypto workers (0 = hardware)
    bool hot_swap = true;      ///< evict + re-provision a tenant mid-campaign
    bool infer_traffic = false;///< run victim + control inference engines
    std::string model = "lenet";
    std::size_t inferences = 1;
    bool control_run = true;   ///< rerun without injection, diff untouched rows
    std::size_t max_wait_us = 0;
};

/// Plan-derived expectations vs. the server's observed failure records.
struct Campaign_ledger {
    /// Expected failure records per tenant id (empty = must stay clean).
    std::vector<std::vector<serve::Failure_record>> expected;

    void expect(u32 tenant, const serve::Failure_record& rec);

    /// Exact attribution: every tenant's observed list equals its expected
    /// list element for element (so non-victims must be empty).
    [[nodiscard]] bool exact(const serve::Serve_stats& stats) const;

    /// Observed failures beyond each tenant's expected count, summed --
    /// the campaign's false-positive measure.
    [[nodiscard]] u64 surplus(const serve::Serve_stats& stats) const;

    /// Expected detections of `status` across all tenants.
    [[nodiscard]] u64 expected_count(core::Verify_status status) const;
};

struct Campaign_result {
    Fault_plan plan;
    serve::Serve_stats stats;  ///< the campaign run's server view
    Campaign_ledger ledger;

    bool attribution_exact = false;  ///< ledger.exact over every tenant
    u64 false_positives = 0;         ///< ledger.surplus (0 when exact)
    u64 probe_surprises = 0;         ///< probe/hot-swap responses off-script
    u64 background_failures = 0;     ///< background client non-ok or mirror miss
    std::size_t seca_probes = 0;
    std::size_t seca_recoveries = 0; ///< Alg. 1 successes (must stay 0)
    u64 faults_injected = 0;         ///< adversary moves the tap executed

    u64 expected_mac_mismatch = 0;
    u64 expected_replay_detected = 0;
    u64 detected_mac_mismatch = 0;   ///< server totals over all tenants
    u64 detected_replay_detected = 0;

    u64 evicted_rejects = 0;          ///< hot swap: submits bounced post-evict
    u64 expected_evicted_rejects = 0;
    u32 swap_tenant = k_no_tenant;
    u32 replacement_tenant = k_no_tenant;

    u32 infer_victim_tenant = k_no_tenant;
    u32 infer_control_tenant = k_no_tenant;
    infer::Infer_stats infer_victim;
    infer::Infer_stats infer_control;
    u64 infer_expected_failures = 0;
    u64 infer_detected_failures = 0;

    bool control_checked = false;    ///< control_run executed
    bool control_identical = true;   ///< untouched rows byte-equal to control

    double wall_seconds = 0.0;       ///< campaign run only (timing-bound)

    /// The acceptance gate: exact attribution, no extras, no off-script
    /// responses, SECA recovered nothing, untouched traffic unperturbed.
    [[nodiscard]] bool clean() const
    {
        return attribution_exact && false_positives == 0 && probe_surprises == 0 &&
               background_failures == 0 && seca_recoveries == 0 &&
               evicted_rejects == expected_evicted_rejects && control_identical &&
               infer_detected_failures == infer_expected_failures;
    }
};

/// Runs the full campaign (and, with cfg.control_run, the no-injection
/// control of the same seed) and evaluates the ledger.
[[nodiscard]] Campaign_result run_campaign(const Campaign_config& cfg);

}  // namespace seda::attack
