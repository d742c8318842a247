// SLO spec parsing and error-budget burn arithmetic on hand-computed
// windows.  Everything here runs on synthetic Intervals -- no registry, no
// poller -- so the math is exact up to histogram bucket width (samples are
// placed far from the thresholds to keep count_le bucket-exact).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/slo.h"
#include "obs/snapshot.h"

namespace seda::obs {
namespace {

/// One synthetic differ window: `at10` samples at 10us, `at10k` at 10000us.
Interval window(const std::string& family, int at10, int at10k)
{
    Interval iv;
    iv.seconds = 1.0;
    Hist_delta hd;
    hd.name = family;
    for (int i = 0; i < at10; ++i) hd.hist.record(10.0);
    for (int i = 0; i < at10k; ++i) hd.hist.record(10000.0);
    iv.histograms.push_back(std::move(hd));
    return iv;
}

TEST(ObsSloParse, AcceptsFullGrammar)
{
    const Slo_spec a = parse_slo("serve_tenant_latency_us:p99<500us:0.999");
    EXPECT_EQ(a.family, "serve_tenant_latency_us");
    EXPECT_DOUBLE_EQ(a.percentile, 99.0);
    EXPECT_DOUBLE_EQ(a.threshold, 500.0);
    EXPECT_DOUBLE_EQ(a.target, 0.999);
    EXPECT_EQ(a.text, "serve_tenant_latency_us:p99<500us:0.999");

    EXPECT_DOUBLE_EQ(parse_slo("f_us:p99.9<2ms:0.99").threshold, 2000.0);
    EXPECT_DOUBLE_EQ(parse_slo("f_us:p99.9<2ms:0.99").percentile, 99.9);
    EXPECT_DOUBLE_EQ(parse_slo("f_us:p50<1s:0.5").threshold, 1e6);
    // No unit suffix: the family's native unit.
    EXPECT_DOUBLE_EQ(parse_slo("f_us:p90<250:0.9").threshold, 250.0);
}

TEST(ObsSloParse, RejectsMalformedSpecs)
{
    EXPECT_THROW((void)parse_slo(""), Seda_error);
    EXPECT_THROW((void)parse_slo("no_colons"), Seda_error);
    EXPECT_THROW((void)parse_slo(":p99<500us:0.999"), Seda_error);       // empty family
    EXPECT_THROW((void)parse_slo("f:p99<500us"), Seda_error);            // no target
    EXPECT_THROW((void)parse_slo("f:99<500us:0.9"), Seda_error);         // no 'p'
    EXPECT_THROW((void)parse_slo("f:p99=500us:0.9"), Seda_error);        // no '<'
    EXPECT_THROW((void)parse_slo("f:p0<500us:0.9"), Seda_error);         // pct 0
    EXPECT_THROW((void)parse_slo("f:p101<500us:0.9"), Seda_error);       // pct > 100
    EXPECT_THROW((void)parse_slo("f:p99<0us:0.9"), Seda_error);          // zero thresh
    EXPECT_THROW((void)parse_slo("f:p99<500xx:0.9"), Seda_error);        // bad unit
    EXPECT_THROW((void)parse_slo("f:p99<infus:0.9"), Seda_error);        // infinite
    EXPECT_THROW((void)parse_slo("f:p99<infms:0.9"), Seda_error);        // infinite
    EXPECT_THROW((void)parse_slo("f:p99<1e308s:0.9"), Seda_error);       // overflows in us
    EXPECT_THROW((void)parse_slo("f:p99<500us:1.0"), Seda_error);        // target = 1
    EXPECT_THROW((void)parse_slo("f:p99<500us:0"), Seda_error);          // target = 0
    EXPECT_THROW((void)parse_slo("f:p99<500us:lots"), Seda_error);       // non-numeric
}

TEST(ObsSloBurn, HandComputedWindows)
{
    // target 0.9 => budget 0.1.  Window 1: 95 good / 5 bad => burn 0.5
    // (underspending).  Window 2: 80 good / 20 bad => burn 2.0.
    Slo_tracker tracker({parse_slo("slo_burn_us:p99<100us:0.9")});
    tracker.observe(window("slo_burn_us", 95, 5));
    tracker.observe(window("slo_burn_us", 80, 20));

    ASSERT_EQ(tracker.results().size(), 1u);
    const Slo_result& r = tracker.results()[0];
    EXPECT_EQ(r.windows, 2u);
    EXPECT_EQ(r.total, 200u);
    EXPECT_DOUBLE_EQ(r.good, 175.0);
    EXPECT_DOUBLE_EQ(r.availability(), 0.875);
    EXPECT_DOUBLE_EQ(r.budget_consumed(), 1.25);  // (1 - 0.875) / 0.1
    EXPECT_FALSE(r.met());
    EXPECT_FALSE(tracker.all_met());

    EXPECT_DOUBLE_EQ(r.last_burn, 2.0);
    EXPECT_DOUBLE_EQ(r.peak_burn_1w, 2.0);
    // Both windows fit the default 12-window ring: (5+20)/200 / 0.1.
    EXPECT_DOUBLE_EQ(r.peak_burn_slow, 1.25);

    // p99 of both windows lands in the 10000us mode, over the threshold.
    EXPECT_EQ(r.violations, 2u);
    EXPECT_GT(r.worst_window_pct, 100.0);
}

TEST(ObsSloBurn, SlowWindowRingEvictsOldWindows)
{
    // slow_windows = 2: window 3's slow burn covers windows {2, 3} only.
    // Burns per window: 0, 1.0 ((20/200)/0.1), 2.0 ((40/200)/0.1).  Without
    // eviction window 3 would read (40/300)/0.1 = 1.33.
    Slo_tracker tracker({parse_slo("slo_ring_us:p99<100us:0.9")}, 2);
    tracker.observe(window("slo_ring_us", 100, 0));
    tracker.observe(window("slo_ring_us", 80, 20));
    tracker.observe(window("slo_ring_us", 80, 20));
    EXPECT_DOUBLE_EQ(tracker.results()[0].peak_burn_slow, 2.0);
}

TEST(ObsSloBurn, IdleWindowsNeitherBurnNorEarn)
{
    Slo_tracker tracker({parse_slo("slo_idle_us:p99<100us:0.9")});
    tracker.observe(window("slo_idle_us", 90, 10));       // burn exactly 1.0
    tracker.observe(window("some_other_family_us", 5, 5));  // not ours: skipped
    Interval empty;
    empty.seconds = 1.0;
    tracker.observe(empty);

    const Slo_result& r = tracker.results()[0];
    EXPECT_EQ(r.windows, 1u);
    EXPECT_EQ(r.total, 100u);
    EXPECT_DOUBLE_EQ(r.budget_consumed(), 1.0);
    EXPECT_TRUE(r.met());  // burning exactly on schedule still meets
}

TEST(ObsSloBurn, CleanRunMeetsWithZeroBurn)
{
    Slo_tracker tracker({parse_slo("slo_clean_us:p99<100us:0.999")});
    tracker.observe(window("slo_clean_us", 100, 0));
    tracker.observe(window("slo_clean_us", 100, 0));

    const Slo_result& r = tracker.results()[0];
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
    EXPECT_DOUBLE_EQ(r.budget_consumed(), 0.0);
    EXPECT_DOUBLE_EQ(r.peak_burn_1w, 0.0);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.met());
    EXPECT_TRUE(tracker.all_met());
}

TEST(ObsSloBurn, NoWindowsMeansVacuouslyMet)
{
    const Slo_tracker tracker({parse_slo("slo_never_us:p99<100us:0.9")});
    EXPECT_DOUBLE_EQ(tracker.results()[0].availability(), 1.0);
    EXPECT_TRUE(tracker.all_met());
}

TEST(ObsSloReport, JsonAndSummaryCarryTheVerdict)
{
    Slo_tracker tracker({parse_slo("slo_rep_us:p99<100us:0.9"),
                         parse_slo("slo_rep_us:p50<20000us:0.5")});
    tracker.observe(window("slo_rep_us", 80, 20));

    std::ostringstream json;
    tracker.write_json(json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"slo\": \"slo_rep_us:p99<100us:0.9\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"budget_consumed\": 2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"met\": false"), std::string::npos) << j;
    EXPECT_NE(j.find("\"met\": true"), std::string::npos) << j;  // the loose p50 one
    EXPECT_NE(j.find("\"all_met\": false"), std::string::npos) << j;

    std::ostringstream sum;
    tracker.write_summary(sum);
    EXPECT_NE(sum.str().find("MISSED"), std::string::npos) << sum.str();
    EXPECT_NE(sum.str().find(": met"), std::string::npos) << sum.str();
}

}  // namespace
}  // namespace seda::obs
