// Closed-loop load generator: deterministic stats for a fixed seed at any
// worker count, zero verification failures under clean multi-tenant load,
// and seed sensitivity.
#include <gtest/gtest.h>

#include "serve/loadgen.h"

namespace seda::serve {
namespace {

Loadgen_config small_config(u64 seed, std::size_t jobs)
{
    Loadgen_config cfg;
    cfg.tenants = 2;
    cfg.clients = 3;
    cfg.requests = 24;
    cfg.jobs = jobs;
    cfg.seed = seed;
    cfg.units_per_client = 8;
    return cfg;
}

/// The deterministic projection of a result: everything CI byte-diffs.
struct Deterministic_view {
    std::vector<Tenant_counters> tenants;
    u64 requests = 0;
    u64 status_failures = 0;
    u64 data_mismatches = 0;

    [[nodiscard]] bool operator==(const Deterministic_view& o) const
    {
        if (requests != o.requests || status_failures != o.status_failures ||
            data_mismatches != o.data_mismatches ||
            tenants.size() != o.tenants.size())
            return false;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            const Tenant_counters& a = tenants[i];
            const Tenant_counters& b = o.tenants[i];
            if (a.writes != b.writes || a.reads != b.reads || a.ok != b.ok ||
                a.mac_mismatch != b.mac_mismatch ||
                a.replay_detected != b.replay_detected || a.rejected != b.rejected ||
                a.bytes != b.bytes || a.payload_fold != b.payload_fold)
                return false;
        }
        return true;
    }
};

Deterministic_view view_of(const Loadgen_result& r)
{
    return {r.stats.tenants, r.stats.requests, r.status_failures, r.data_mismatches};
}

TEST(Loadgen, CleanLoadHasZeroFailuresAndFullCounts)
{
    const auto cfg = small_config(42, 4);
    const auto result = run_loadgen(cfg);

    EXPECT_EQ(result.total_requests, cfg.tenants * cfg.clients * cfg.requests);
    EXPECT_EQ(result.status_failures, 0u);
    EXPECT_EQ(result.data_mismatches, 0u);
    EXPECT_EQ(result.stats.requests, result.total_requests);

    const auto totals = result.stats.totals();
    EXPECT_EQ(totals.writes + totals.reads, result.total_requests);
    EXPECT_EQ(totals.ok, result.total_requests);
    EXPECT_EQ(totals.mac_mismatch, 0u);
    EXPECT_EQ(totals.replay_detected, 0u);
    EXPECT_EQ(totals.rejected, 0u);
    EXPECT_GT(totals.writes, 0u);
    EXPECT_GT(totals.reads, 0u);
    // Every request was timestamped through the real submit path.
    EXPECT_EQ(result.stats.latency_us.count(), result.total_requests);
    // Each latency runs from submit to the end of its flush, both inside
    // the run's wall time: a wrapped tick delta or a completion stamp
    // taken on the wrong side would exceed it.
    EXPECT_LE(result.stats.latency_us.max(), result.wall_seconds * 1e6);
}

TEST(Loadgen, StatsAreDeterministicAcrossWorkerCounts)
{
    const auto j1 = run_loadgen(small_config(7, 1));
    const auto j4 = run_loadgen(small_config(7, 4));
    const auto j8 = run_loadgen(small_config(7, 8));
    EXPECT_TRUE(view_of(j1) == view_of(j4));
    EXPECT_TRUE(view_of(j1) == view_of(j8));
    // And across identical repeat runs (scheduling noise must not leak in).
    const auto j4_again = run_loadgen(small_config(7, 4));
    EXPECT_TRUE(view_of(j4) == view_of(j4_again));
}

TEST(Loadgen, DifferentSeedsProduceDifferentTraffic)
{
    const auto a = run_loadgen(small_config(1, 2));
    const auto b = run_loadgen(small_config(2, 2));
    // Payload folds are 64-bit digests of independent streams; collision of
    // every tenant's fold would be astronomically unlikely.
    EXPECT_FALSE(view_of(a) == view_of(b));
}

TEST(Loadgen, ClientSeedsAreInjectiveAcrossTenantAndClient)
{
    EXPECT_NE(client_seed(5, 0, 0), client_seed(5, 0, 1));
    EXPECT_NE(client_seed(5, 0, 0), client_seed(5, 1, 0));
    EXPECT_NE(client_seed(5, 1, 0), client_seed(5, 0, 1));
    EXPECT_NE(client_seed(5, 0, 0), client_seed(6, 0, 0));
    EXPECT_EQ(client_seed(5, 3, 2), client_seed(5, 3, 2));
}

}  // namespace
}  // namespace seda::serve
