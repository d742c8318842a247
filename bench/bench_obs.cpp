// Observability micro-benchmarks (google-benchmark): the per-record cost of
// every hot-path primitive the instrumentation adds, so the ≤2% budget on
// bm_serve_batched can be decomposed.
//
// Run once normally and once with SEDA_OBS=0 to see the disabled-path cost
// (one relaxed load and a predictable branch per site).
// docs/BENCHMARKS.md records the numbers.
#include <benchmark/benchmark.h>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"

using namespace seda;

namespace {

void bm_obs_now_ticks(benchmark::State& state)
{
    for (auto _ : state) benchmark::DoNotOptimize(obs::now_ticks());
}
BENCHMARK(bm_obs_now_ticks);

void bm_obs_counter_add(benchmark::State& state)
{
    const obs::Counter c = obs::Metrics_registry::instance().counter("bench_counter");
    for (auto _ : state) c.add();
}
BENCHMARK(bm_obs_counter_add);

void bm_obs_registry_histogram_record(benchmark::State& state)
{
    const obs::Histogram h = obs::Metrics_registry::instance().histogram("bench_hist");
    double v = 1.0;
    for (auto _ : state) {
        h.record(v);
        v += 0.37;  // walk the buckets so the branch pattern is realistic
        if (v > 1e6) v = 1.0;
    }
}
BENCHMARK(bm_obs_registry_histogram_record);

void bm_obs_plain_histogram_record(benchmark::State& state)
{
    // The unsharded Log_histogram (what Serve_stats::latency_us uses on the
    // scheduler thread) -- no thread-local lookup, no atomics.
    obs::Log_histogram h;
    double v = 1.0;
    for (auto _ : state) {
        h.record(v);
        v += 0.37;
        if (v > 1e6) v = 1.0;
    }
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(bm_obs_plain_histogram_record);

void bm_obs_stage_span(benchmark::State& state)
{
    for (auto _ : state) {
        obs::Stage_span span(obs::Stage::stage_writes);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_obs_stage_span);

void bm_obs_phase_timer_two_laps(benchmark::State& state)
{
    for (auto _ : state) {
        obs::Phase_timer t;
        t.lap(obs::Stage::baes);
        t.lap(obs::Stage::bulk_mac);
    }
}
BENCHMARK(bm_obs_phase_timer_two_laps);

void bm_obs_flight_record(benchmark::State& state)
{
    // The always-on flight-recorder append, paid once per flush on the
    // serve path: a thread_local load, an uncontended lock and one 64 B
    // store into this thread's ring.
    u64 addr = 0;
    for (auto _ : state) {
        obs::Flight_recorder::record(obs::Flight_kind::flush_write, 1, addr, 4, 256);
        benchmark::ClobberMemory();
        addr += 64;
    }
}
BENCHMARK(bm_obs_flight_record);

void bm_obs_scrape(benchmark::State& state)
{
    // Scrape cost scales with registered metrics x touched cells; this is
    // the cold-path price of one --stats-out export.
    const obs::Histogram h = obs::Metrics_registry::instance().histogram("bench_scrape_h");
    for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(i + 1));
    for (auto _ : state) {
        auto snap = obs::Metrics_registry::instance().scrape();
        benchmark::DoNotOptimize(snap.histograms.size());
    }
}
BENCHMARK(bm_obs_scrape);

void bm_obs_scrape_into(benchmark::State& state)
{
    // The exporter/differ path: same fold as bm_obs_scrape but into a
    // reused Snapshot, so warm iterations stay off the allocator.  The gap
    // between the two is the allocation churn a scrape-per-request HTTP
    // exporter avoids.
    const obs::Histogram h = obs::Metrics_registry::instance().histogram("bench_scrape_h");
    for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(i + 1));
    obs::Snapshot snap;
    obs::Metrics_registry::instance().scrape_into(snap);  // warm the buffers
    for (auto _ : state) {
        obs::Metrics_registry::instance().scrape_into(snap);
        benchmark::DoNotOptimize(snap.histograms.size());
    }
}
BENCHMARK(bm_obs_scrape_into);

}  // namespace

BENCHMARK_MAIN();
