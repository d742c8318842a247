// seda_cli: command-line front end for the simulation pipeline and the
// secure serving layer.
//
// Subcommands are registered in one command table (name, handler, usage
// line) so adding one does not grow an if/else chain; `help`/unknown
// handling and exit codes stay uniform (0 for help, 2 for usage errors).
//
// --jobs N fans the work across a runtime::Thread_pool of N workers (0 =
// one per hardware thread); output is byte-identical at every worker count
// (for loadgen: the deterministic stats, which is all --json prints --
// timing goes to stderr).  --json emits machine-readable JSON so bench
// trajectories can be captured as BENCH_*.json files.  The SEDA_AES_BACKEND
// environment variable pins the process-wide AES backend (docs/BACKENDS.md);
// simulator output is identical under every backend, which is exactly what
// makes it a cross-validation knob.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes_backend.h"
#include "obs/http_exporter.h"
#include "obs/slo.h"
#include "obs/snapshot.h"
#include "seda.h"

using namespace seda;

namespace {

struct Options {
    std::string command;
    std::string model = "resnet18";
    std::string npu = "server";
    std::string scheme = "seda";
    std::size_t jobs = 1;
    bool csv = false;
    bool json = false;
    // loadgen / infer
    std::size_t tenants = 2;
    std::size_t clients = 4;
    std::size_t requests = 64;
    u64 seed = 0x5EDA;
    std::string mode = "serve";  ///< infer replay path: serve | session
    // infer defaults to 1 tenant x 1 inference (a full model pass is many
    // thousand unit ops); explicit flags override.
    bool tenants_set = false;
    bool requests_set = false;
    // attack
    std::size_t faults = 8;  ///< faults in the campaign plan
    bool model_set = false;  ///< attack defaults to lenet unless --model given
    // observability exports (loadgen, infer) -- all timing-bound, so they
    // go to stderr or the named files, never the stdout JSON contract
    std::string stats_out;   ///< Prometheus text scrape file
    std::string stats_json;  ///< JSON scrape file
    std::string trace_out;   ///< chrome://tracing span file
    std::string flight_out;  ///< flight-recorder dump file (also armed for
                             ///< automatic dump on any detection event)
    bool stages = false;     ///< per-stage percentile table on stderr
    // live telemetry plane (loadgen, infer, attack) -- sockets and stderr
    // only, so the stdout --json contract is untouched
    std::size_t listen = 0;          ///< --listen port (0 = ephemeral)
    bool listen_set = false;         ///< --listen given (env can also arm it)
    std::size_t listen_linger_ms = 0;  ///< hold the exporter open after the run
    std::size_t watch_ms = 0;        ///< --watch refresh interval (0 = off)
    std::vector<std::string> slos;   ///< --slo specs (repeatable)
    std::string slo_out;             ///< SLO report file (stderr summary if empty)
};

// ---------------------------------------------------------------- helpers ---

/// from_chars with a full-consumption check: stoul would accept "-1"
/// (wrapping) and "4x" (silently truncating).
template <typename Int>
void parse_int(const std::string& flag, const std::string& v, Int& out)
{
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    require(ec == std::errc() && end == v.data() + v.size(),
            "seda_cli: " + flag + " expects a non-negative integer, got '" + v + "'");
}

accel::Npu_config npu_by_name(const std::string& name)
{
    if (name == "server") return accel::Npu_config::server();
    if (name == "edge") return accel::Npu_config::edge();
    throw Seda_error("seda_cli: unknown NPU '" + name + "' (server|edge)");
}

/// Shortest round-trippable representation, locale-independent ('.' radix
/// is guaranteed for %g with the C locale snprintf uses on our platforms).
std::string json_double(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Quoted JSON string: today's npu/scheme/model names are identifier-like,
/// but nothing in their contracts forbids a quote.
std::string json_string(std::string_view s) { return '"' + json_escaped(s) + '"'; }

std::string hex64(u64 v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Arms the observability exports requested by the flags; call before the
/// instrumented run so a --trace-out recording covers it.
void obs_begin(const Options& o)
{
    const bool wants = !o.stats_out.empty() || !o.stats_json.empty() ||
                       !o.trace_out.empty() || !o.flight_out.empty() || o.stages;
    if (!wants) return;
    if (!obs::enabled())
        std::cerr << "seda_cli: note: SEDA_OBS=0 disables stage metrics; "
                     "scrape output will be empty\n";
    if (!o.trace_out.empty()) obs::Trace_recorder::start();
    // Armed BEFORE the run: the first detection event snapshots the ring
    // to this path at the moment of detection, not at exit.
    if (!o.flight_out.empty()) obs::Flight_recorder::arm_auto_dump(o.flight_out);
}

/// Scrapes once and writes every requested export (stderr table, Prometheus
/// text, JSON snapshot, chrome trace).
void obs_finish(const Options& o)
{
    const bool wants_scrape = !o.stats_out.empty() || !o.stats_json.empty() || o.stages;
    if (wants_scrape) {
        const obs::Snapshot snap = obs::Metrics_registry::instance().scrape();
        if (o.stages) obs::write_stage_table(snap, std::cerr);
        if (!o.stats_out.empty()) {
            std::ofstream f(o.stats_out);
            obs::write_prometheus(snap, f);
            require(f.good(), "seda_cli: failed to write " + o.stats_out);
        }
        if (!o.stats_json.empty()) {
            std::ofstream f(o.stats_json);
            obs::write_json(snap, f);
            require(f.good(), "seda_cli: failed to write " + o.stats_json);
        }
    }
    if (!o.trace_out.empty()) {
        std::ofstream f(o.trace_out);
        obs::Trace_recorder::write_json(f);
        require(f.good(), "seda_cli: failed to write " + o.trace_out);
        if (const u64 dropped = obs::Trace_recorder::dropped(); dropped != 0)
            std::cerr << "seda_cli: note: trace buffers overflowed, " << dropped
                      << " spans dropped\n";
    }
    if (!o.flight_out.empty()) {
        // Final end-of-run dump: overwrites any mid-run detection snapshot
        // with the complete picture (the detection events themselves are in
        // the ring, so nothing forensic is lost by the overwrite).
        require(obs::Flight_recorder::dump_flight(o.flight_out),
                "seda_cli: failed to write " + o.flight_out);
        if (const u64 det = obs::Flight_recorder::detections(); det != 0)
            std::cerr << "seda_cli: note: flight recorder saw " << det
                      << " detection event(s); dump at " << o.flight_out << "\n";
    }
}

/// The live telemetry plane of one instrumented run: the loopback HTTP
/// exporter (--listen / SEDA_OBS_LISTEN), the periodic snapshot differ
/// feeding the --watch stderr table, and the SLO tracker (--slo).  All
/// output rides sockets or stderr -- the stdout --json contract stays
/// byte-identical with every piece enabled (CI proves it).
struct Live_plane {
    std::unique_ptr<obs::Http_exporter> exporter;
    std::unique_ptr<obs::Slo_tracker> slo;
    std::unique_ptr<obs::Snapshot_poller> poller;
    obs::Watch_config watch;
    bool want_watch = false;

    /// Starts the exporter and poller (before the workload, so the first
    /// scrape can observe it ramping).  `defaults` carries the per-command
    /// watch families (serve vs infer).
    void start(const Options& o, obs::Watch_config defaults)
    {
        u16 port = static_cast<u16>(o.listen);
        bool want_listen = o.listen_set;
        if (!want_listen) {
            if (const u16 env_port = obs::listen_port_from_env(); env_port != 0) {
                port = env_port;
                want_listen = true;
            }
        }
        if (want_listen) {
            obs::Http_exporter_config cfg;
            cfg.port = port;
            exporter = std::make_unique<obs::Http_exporter>(cfg);
            exporter->start();
            std::cerr << "telemetry: listening on 127.0.0.1:" << exporter->port()
                      << " (/metrics /metrics.json /healthz /flight)\n";
        }

        want_watch = o.watch_ms != 0;
        const bool want_slo = !o.slos.empty();
        if (!want_watch && !want_slo) return;
        if (!obs::enabled())
            std::cerr << "seda_cli: note: observability is off; --watch/--slo see "
                         "empty snapshots\n";
        if (want_slo) {
            std::vector<obs::Slo_spec> specs;
            specs.reserve(o.slos.size());
            for (const auto& s : o.slos) specs.push_back(obs::parse_slo(s));
            slo = std::make_unique<obs::Slo_tracker>(std::move(specs));
        }
        watch = std::move(defaults);
        watch.interval = std::chrono::milliseconds(o.watch_ms != 0 ? o.watch_ms : 1000);
        poller = std::make_unique<obs::Snapshot_poller>(
            watch.interval, [this](const obs::Interval& iv) {
                if (want_watch) std::cerr << obs::render_watch_line(iv, watch) << "\n";
                if (slo) slo->observe(iv);
            });
        poller->start();
    }

    /// Stops the poller (flushing the tail interval), writes the SLO
    /// report, lingers if asked (so an external scraper can take a final
    /// /metrics pass and watch /healthz flip to stopped), then closes the
    /// exporter.
    void finish(const Options& o)
    {
        if (poller) poller->stop();
        if (slo) {
            if (!o.slo_out.empty()) {
                std::ofstream f(o.slo_out);
                slo->write_json(f);
                require(f.good(), "seda_cli: failed to write " + o.slo_out);
            }
            slo->write_summary(std::cerr);
        }
        if (exporter) {
            if (o.listen_linger_ms != 0) {
                std::cerr << "telemetry: lingering " << o.listen_linger_ms
                          << " ms for final scrapes\n";
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(o.listen_linger_ms));
            }
            exporter->stop();
        }
    }
};

/// Watch families for the inference replay path (no serve request stream
/// when --mode session; the layer histogram is the latency view either way).
obs::Watch_config infer_watch_defaults()
{
    obs::Watch_config w;
    w.rate_counter = "infer_inferences_total";
    w.latency_family = "infer_layer_us";
    w.tenant_error_families = {"infer_tenant_failures_total"};
    w.tenant_total_families = {"infer_tenant_ok_total"};
    return w;
}

// --------------------------------------------------------------- commands ---

int cmd_list(const Options&)
{
    std::cout << "workloads:";
    for (const auto& e : models::all_models())
        std::cout << " " << e.short_name << "(" << e.full_name << ")";
    std::cout << "\nnpus: server (TPU-v1-class)  edge (Exynos-990-class)\n"
              << "schemes: baseline sgx-64 sgx-512 mgx-64 mgx-512 securator seda\n";
    return 0;
}

int cmd_run(const Options& o)
{
    const auto npu = npu_by_name(o.npu);
    const auto sim = accel::simulate_model(models::model_by_name(o.model), npu);
    auto scheme = core::make_scheme(o.scheme);

    if (o.csv) {
        // The CSV report is a single scheme pass (no baseline to overlap
        // with), so there is nothing for extra workers to do.
        if (o.jobs != 1)
            std::cerr << "seda_cli: note: --jobs has no effect on run --csv "
                         "(single pass)\n";
        const auto stats = core::run_protected(sim, *scheme);
        Ascii_table t({"layer", "compute_cycles", "mem_cycles", "layer_cycles",
                       "traffic_bytes", "verify_events"});
        for (const auto& l : stats.layers)
            t.add_row({l.layer_name, std::to_string(l.compute_cycles),
                       std::to_string(l.mem_cycles), std::to_string(l.layer_cycles),
                       std::to_string(l.traffic_bytes), std::to_string(l.verify_events)});
        t.print_csv(std::cout);
        return 0;
    }

    // The scheme and baseline runs are independent; with --jobs > 1 they
    // overlap on the pool.
    core::Run_stats stats;
    core::Run_stats base_stats;
    if (o.jobs == 1) {
        stats = core::run_protected(sim, *scheme);
        protect::Baseline_scheme base;
        base_stats = core::run_protected(sim, base);
    } else {
        runtime::Thread_pool pool(o.jobs);
        auto scheme_run = pool.submit([&] { return core::run_protected(sim, *scheme); });
        auto base_run = pool.submit([&] {
            protect::Baseline_scheme base;
            return core::run_protected(sim, base);
        });
        stats = scheme_run.get();
        base_stats = base_run.get();
    }

    std::cout << o.model << " on " << npu.name << " under " << stats.scheme_name << ":\n"
              << "  cycles:  " << stats.total_cycles << " ("
              << fmt_f(stats.seconds(npu.freq_ghz) * 1e3, 3) << " ms)\n"
              << "  traffic: " << fmt_bytes(stats.traffic_bytes) << "\n"
              << "  events:  " << stats.verify_events << " verifications, "
              << stats.mac_misses << " MAC-line stalls\n"
              << "  vs baseline: slowdown "
              << fmt_pct(static_cast<double>(stats.total_cycles) /
                             static_cast<double>(base_stats.total_cycles) -
                         1.0)
              << ", traffic overhead "
              << fmt_pct(static_cast<double>(stats.traffic_bytes) /
                             static_cast<double>(base_stats.traffic_bytes) -
                         1.0)
              << "\n";
    return 0;
}

int cmd_report(const Options& o)
{
    const auto sim =
        accel::simulate_model(models::model_by_name(o.model), npu_by_name(o.npu));
    std::cout << accel::reports_to_string(sim);
    return 0;
}

void print_suite_json(const core::Suite_result& suite, std::ostream& os)
{
    os << "{\n  \"npu\": " << json_string(suite.npu_name) << ",\n  \"schemes\": [\n";
    for (std::size_t s = 0; s < suite.series.size(); ++s) {
        const auto& series = suite.series[s];
        os << "    {\n      \"scheme\": " << json_string(series.scheme) << ",\n"
           << "      \"avg_norm_traffic\": " << json_double(series.avg_norm_traffic())
           << ",\n"
           << "      \"avg_norm_perf\": " << json_double(series.avg_norm_perf()) << ",\n"
           << "      \"points\": [\n";
        for (std::size_t p = 0; p < series.points.size(); ++p) {
            const auto& pt = series.points[p];
            os << "        {\"model\": " << json_string(pt.model) << ", \"norm_traffic\": "
               << json_double(pt.norm_traffic) << ", \"norm_perf\": "
               << json_double(pt.norm_perf) << ", \"cycles\": " << pt.stats.total_cycles
               << ", \"traffic_bytes\": " << pt.stats.traffic_bytes
               << ", \"baseline_cycles\": " << pt.baseline.total_cycles
               << ", \"baseline_traffic_bytes\": " << pt.baseline.traffic_bytes << "}"
               << (p + 1 < series.points.size() ? "," : "") << "\n";
        }
        os << "      ]\n    }" << (s + 1 < suite.series.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int cmd_suite(const Options& o)
{
    require(!(o.csv && o.json), "seda_cli: --csv and --json are mutually exclusive");
    const auto suite =
        runtime::run_suite_parallel(npu_by_name(o.npu), core::paper_schemes(), o.jobs);

    if (o.json) {
        print_suite_json(suite, std::cout);
        return 0;
    }

    std::vector<std::string> header = {"scheme", "metric"};
    for (const auto& p : suite.series.front().points) header.push_back(std::string(p.model));
    header.push_back("avg");
    Ascii_table t(header);
    for (const auto& s : suite.series) {
        std::vector<std::string> traffic = {s.scheme, "norm_traffic"};
        std::vector<std::string> perf = {s.scheme, "norm_perf"};
        for (const auto& p : s.points) {
            traffic.push_back(fmt_f(p.norm_traffic, 4));
            perf.push_back(fmt_f(p.norm_perf, 4));
        }
        traffic.push_back(fmt_f(s.avg_norm_traffic(), 4));
        perf.push_back(fmt_f(s.avg_norm_perf(), 4));
        t.add_row(std::move(traffic));
        t.add_row(std::move(perf));
    }
    if (o.csv)
        t.print_csv(std::cout);
    else
        t.print(std::cout);
    return 0;
}

/// Deterministic loadgen summary: ONLY fields that are byte-identical for
/// a fixed seed at any --jobs (CI diffs this across worker counts).
void print_loadgen_json(const serve::Loadgen_config& cfg, const serve::Loadgen_result& r,
                        std::ostream& os)
{
    const auto totals = r.stats.totals();
    os << "{\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"tenants\": " << cfg.tenants << ",\n"
       << "  \"clients_per_tenant\": " << cfg.clients << ",\n"
       << "  \"requests_per_client\": " << cfg.requests << ",\n"
       << "  \"unit_bytes\": " << cfg.unit_bytes << ",\n"
       << "  \"total_requests\": " << r.total_requests << ",\n"
       << "  \"status_failures\": " << r.status_failures << ",\n"
       << "  \"data_mismatches\": " << r.data_mismatches << ",\n"
       << "  \"totals\": {\"writes\": " << totals.writes << ", \"reads\": " << totals.reads
       << ", \"ok\": " << totals.ok << ", \"mac_mismatch\": " << totals.mac_mismatch
       << ", \"replay_detected\": " << totals.replay_detected
       << ", \"rejected\": " << totals.rejected << ", \"bytes\": " << totals.bytes
       << ", \"payload_fold\": " << json_string(hex64(totals.payload_fold)) << "},\n"
       << "  \"per_tenant\": [\n";
    for (std::size_t t = 0; t < r.stats.tenants.size(); ++t) {
        const auto& c = r.stats.tenants[t];
        os << "    {\"tenant\": " << t << ", \"writes\": " << c.writes
           << ", \"reads\": " << c.reads << ", \"ok\": " << c.ok
           << ", \"mac_mismatch\": " << c.mac_mismatch
           << ", \"replay_detected\": " << c.replay_detected
           << ", \"rejected\": " << c.rejected << ", \"bytes\": " << c.bytes
           << ", \"payload_fold\": " << json_string(hex64(c.payload_fold)) << "}"
           << (t + 1 < r.stats.tenants.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int cmd_loadgen(const Options& o)
{
    serve::Loadgen_config cfg;
    cfg.tenants = o.tenants;
    cfg.clients = o.clients;
    cfg.requests = o.requests;
    cfg.jobs = o.jobs;
    cfg.seed = o.seed;

    obs_begin(o);
    Live_plane plane;
    plane.start(o, obs::Watch_config{});
    const auto result = serve::run_loadgen(cfg);

    // Timing always goes to stderr: humans see it either way, and the
    // stdout JSON stays byte-diffable across --jobs values.  Percentiles
    // come interpolated from the latency histogram (stats.h discusses the
    // nearest-rank tail bias this avoids).
    const auto& lat = result.stats.latency_us;
    std::cerr << "loadgen: " << result.total_requests << " requests ("
              << cfg.tenants << " tenants x " << cfg.clients << " clients x "
              << cfg.requests << " each) in " << fmt_f(result.wall_seconds, 3) << " s = "
              << fmt_f(result.requests_per_second(), 1)
              << " req/s; latency us p50/p95/p99/p999 = "
              << fmt_f(lat.percentile(50), 1) << "/" << fmt_f(lat.percentile(95), 1) << "/"
              << fmt_f(lat.percentile(99), 1) << "/" << fmt_f(lat.percentile(99.9), 1)
              << "; " << result.stats.batches << " batches\n";
    obs_finish(o);
    plane.finish(o);

    if (o.json) {
        print_loadgen_json(cfg, result, std::cout);
        return 0;
    }

    Ascii_table t({"tenant", "writes", "reads", "ok", "mac_mismatch", "replay", "rejected",
                   "bytes", "payload_fold"});
    for (std::size_t i = 0; i < result.stats.tenants.size(); ++i) {
        const auto& c = result.stats.tenants[i];
        t.add_row({std::to_string(i), std::to_string(c.writes), std::to_string(c.reads),
                   std::to_string(c.ok), std::to_string(c.mac_mismatch),
                   std::to_string(c.replay_detected), std::to_string(c.rejected),
                   std::to_string(c.bytes), hex64(c.payload_fold)});
    }
    t.print(std::cout);
    std::cout << "status failures: " << result.status_failures
              << "  data mismatches: " << result.data_mismatches << "\n";
    return 0;
}

/// Deterministic infer summary: ONLY fields that are byte-identical for a
/// fixed seed at any --jobs and either --mode (CI diffs this).
void print_infer_json(const std::string& model, const std::string& npu,
                      const infer::Infer_config& cfg, const infer::Infer_result& r,
                      std::ostream& os)
{
    const auto counters = [](const infer::Unit_counters& c) {
        std::string out = "{\"writes\": " + std::to_string(c.writes) +
                          ", \"reads\": " + std::to_string(c.reads) +
                          ", \"ok\": " + std::to_string(c.ok) +
                          ", \"mac_mismatch\": " + std::to_string(c.mac_mismatch) +
                          ", \"replay_detected\": " + std::to_string(c.replay_detected) +
                          ", \"bytes\": " + std::to_string(c.bytes) +
                          ", \"payload_fold\": \"" + hex64(c.payload_fold) + "\"}";
        return out;
    };
    const auto totals = r.merged.totals();
    os << "{\n"
       << "  \"model\": " << json_string(model) << ",\n"
       << "  \"npu\": " << json_string(npu) << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"tenants\": " << cfg.tenants << ",\n"
       << "  \"inferences_per_tenant\": " << cfg.inferences << ",\n"
       << "  \"unit_bytes\": " << infer::Model_binding::k_unit_bytes << ",\n"
       << "  \"verification_failures\": " << r.verification_failures << ",\n"
       << "  \"data_mismatches\": " << r.data_mismatches << ",\n"
       << "  \"protected_bytes\": " << r.protected_bytes() << ",\n"
       << "  \"load\": " << counters(r.merged.load) << ",\n"
       << "  \"totals\": " << counters(totals) << ",\n"
       << "  \"per_layer\": [\n";
    for (std::size_t i = 0; i < r.merged.layers.size(); ++i) {
        const auto& l = r.merged.layers[i];
        os << "    {\"layer\": " << i << ", \"name\": " << json_string(l.name)
           << ",\n     \"weight\": " << counters(l.weight)
           << ",\n     \"ifmap\": " << counters(l.ifmap)
           << ",\n     \"ofmap\": " << counters(l.ofmap) << "}"
           << (i + 1 < r.merged.layers.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"per_tenant\": [\n";
    for (std::size_t t = 0; t < r.per_tenant.size(); ++t) {
        os << "    {\"tenant\": " << t
           << ", \"totals\": " << counters(r.per_tenant[t].totals()) << "}"
           << (t + 1 < r.per_tenant.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int cmd_infer(const Options& o)
{
    infer::Infer_config cfg;
    cfg.tenants = o.tenants_set ? o.tenants : 1;
    cfg.inferences = o.requests_set ? o.requests : 1;
    cfg.jobs = o.jobs;
    cfg.seed = o.seed;
    if (o.mode == "serve")
        cfg.path = infer::Replay_path::serve;
    else if (o.mode == "session")
        cfg.path = infer::Replay_path::session;
    else
        throw Seda_error("seda_cli: unknown --mode '" + o.mode + "' (serve|session)");

    obs_begin(o);
    Live_plane plane;
    plane.start(o, infer_watch_defaults());
    const auto result =
        infer::run_infer(models::model_by_name(o.model), npu_by_name(o.npu), cfg);

    // Timing to stderr: stdout stays byte-diffable across --jobs/--mode.
    std::cerr << "infer: " << o.model << " on " << o.npu << " via " << o.mode << ", "
              << cfg.tenants << " tenant(s) x " << cfg.inferences << " inference(s) in "
              << fmt_f(result.wall_seconds, 3) << " s = "
              << fmt_f(result.mb_per_second(), 1) << " MB/s protected ("
              << fmt_bytes(result.protected_bytes()) << " through the secure path)\n";
    if (obs::enabled()) {
        // Layer-replay percentiles from the registry: infer has no
        // per-request latency, so the layer span histogram is its tail view.
        const auto snap = obs::Metrics_registry::instance().scrape();
        if (const auto* h = obs::find_histogram(snap, "infer_layer_us"))
            std::cerr << "infer: layer replay us p50/p95/p99/p999 = "
                      << fmt_f(h->hist.percentile(50), 1) << "/"
                      << fmt_f(h->hist.percentile(95), 1) << "/"
                      << fmt_f(h->hist.percentile(99), 1) << "/"
                      << fmt_f(h->hist.percentile(99.9), 1) << " over "
                      << h->hist.count() << " layer replays\n";
    }
    obs_finish(o);
    plane.finish(o);

    if (o.json) {
        print_infer_json(o.model, o.npu, cfg, result, std::cout);
        return 0;
    }

    Ascii_table t({"layer", "name", "writes", "reads", "ok", "mac_mismatch", "replay",
                   "bytes"});
    for (std::size_t i = 0; i < result.merged.layers.size(); ++i) {
        const auto c = result.merged.layers[i].total();
        t.add_row({std::to_string(i), result.merged.layers[i].name,
                   std::to_string(c.writes), std::to_string(c.reads), std::to_string(c.ok),
                   std::to_string(c.mac_mismatch), std::to_string(c.replay_detected),
                   std::to_string(c.bytes)});
    }
    const auto totals = result.merged.totals();
    t.add_row({"-", "total", std::to_string(totals.writes), std::to_string(totals.reads),
               std::to_string(totals.ok), std::to_string(totals.mac_mismatch),
               std::to_string(totals.replay_detected), std::to_string(totals.bytes)});
    t.print(std::cout);
    std::cout << "verification failures: " << result.verification_failures
              << "  data mismatches: " << result.data_mismatches << "\n";
    return 0;
}

/// Deterministic campaign summary: ONLY fields that are byte-identical for
/// a fixed seed at any --jobs (CI diffs this across worker counts).  Wall
/// time and batch shapes go to stderr like every other subcommand.
void print_attack_json(const attack::Campaign_config& cfg, const attack::Campaign_result& r,
                       std::ostream& os)
{
    const auto record = [](const serve::Failure_record& f) {
        return "{\"addr\": " + std::to_string(f.addr) +
               ", \"layer_id\": " + std::to_string(f.layer_id) +
               ", \"fmap_idx\": " + std::to_string(f.fmap_idx) +
               ", \"blk_idx\": " + std::to_string(f.blk_idx) +
               ", \"status\": " + json_string(core::to_string(f.status)) + "}";
    };
    const auto role = [&](u32 t) -> const char* {
        if (t == 0) return "control";
        if (t == r.swap_tenant) return "evicted";
        if (t == r.replacement_tenant) return "replacement";
        if (t == r.infer_victim_tenant) return "infer_victim";
        if (t == r.infer_control_tenant) return "infer_control";
        return t < cfg.tenants ? "victim" : "idle";
    };
    os << "{\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"tenants\": " << cfg.tenants << ",\n"
       << "  \"faults\": " << r.plan.faults.size() << ",\n"
       << "  \"clients_per_tenant\": " << cfg.clients << ",\n"
       << "  \"requests_per_client\": " << cfg.requests << ",\n"
       << "  \"hot_swap\": " << (cfg.hot_swap ? "true" : "false") << ",\n"
       << "  \"infer_traffic\": " << (cfg.infer_traffic ? "true" : "false") << ",\n"
       << "  \"model\": " << json_string(cfg.infer_traffic ? cfg.model : "") << ",\n"
       << "  \"injected\": {";
    for (std::size_t k = 0; k < attack::k_fault_kind_count; ++k) {
        const auto kind = static_cast<attack::Fault_kind>(k);
        os << (k ? ", " : "") << json_string(attack::to_string(kind)) << ": "
           << r.plan.count(kind);
    }
    os << "},\n"
       << "  \"faults_injected\": " << r.faults_injected << ",\n"
       << "  \"expected\": {\"mac_mismatch\": " << r.expected_mac_mismatch
       << ", \"replay_detected\": " << r.expected_replay_detected << "},\n"
       << "  \"detected\": {\"mac_mismatch\": " << r.detected_mac_mismatch
       << ", \"replay_detected\": " << r.detected_replay_detected << "},\n"
       << "  \"attribution_exact\": " << (r.attribution_exact ? "true" : "false") << ",\n"
       << "  \"false_positives\": " << r.false_positives << ",\n"
       << "  \"probe_surprises\": " << r.probe_surprises << ",\n"
       << "  \"background_failures\": " << r.background_failures << ",\n"
       << "  \"seca\": {\"probes\": " << r.seca_probes
       << ", \"recoveries\": " << r.seca_recoveries << "},\n"
       << "  \"hot_swap_result\": {\"evicted_rejects\": " << r.evicted_rejects
       << ", \"expected_evicted_rejects\": " << r.expected_evicted_rejects << "},\n"
       << "  \"infer\": {\"expected_failures\": " << r.infer_expected_failures
       << ", \"detected_failures\": " << r.infer_detected_failures << "},\n"
       << "  \"control\": {\"checked\": " << (r.control_checked ? "true" : "false")
       << ", \"identical\": " << (r.control_identical ? "true" : "false") << "},\n"
       << "  \"clean\": " << (r.clean() ? "true" : "false") << ",\n"
       << "  \"per_tenant\": [\n";
    for (std::size_t t = 0; t < r.stats.tenants.size(); ++t) {
        const auto& c = r.stats.tenants[t];
        os << "    {\"tenant\": " << t << ", \"role\": "
           << json_string(role(static_cast<u32>(t))) << ", \"writes\": " << c.writes
           << ", \"reads\": " << c.reads << ", \"ok\": " << c.ok
           << ", \"mac_mismatch\": " << c.mac_mismatch
           << ", \"replay_detected\": " << c.replay_detected
           << ", \"rejected\": " << c.rejected << ",\n     \"detections\": [";
        for (std::size_t i = 0; i < c.failures.size(); ++i)
            os << (i ? ",\n       " : "") << record(c.failures[i]);
        os << "]}" << (t + 1 < r.stats.tenants.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int cmd_attack(const Options& o)
{
    attack::Campaign_config cfg;
    cfg.seed = o.seed;
    cfg.tenants = static_cast<u32>(o.tenants_set ? o.tenants : 3);
    cfg.faults = o.faults;
    cfg.clients = o.clients;
    cfg.requests = o.requests_set ? o.requests : 16;
    cfg.jobs = o.jobs;
    cfg.hot_swap = true;
    cfg.infer_traffic = true;
    cfg.model = o.model_set ? o.model : "lenet";
    cfg.control_run = true;

    obs_begin(o);
    Live_plane plane;
    plane.start(o, obs::Watch_config{});
    const auto r = attack::run_campaign(cfg);

    // Timing to stderr: stdout stays byte-diffable across --jobs.
    std::cerr << "attack: seed " << cfg.seed << ", " << r.plan.faults.size()
              << " faults over " << (cfg.tenants - 1) << " victim tenant(s), "
              << cfg.clients << " background client(s)/tenant x " << cfg.requests
              << " requests, hot swap + " << cfg.model << " inference, in "
              << fmt_f(r.wall_seconds, 3) << " s; attribution "
              << (r.attribution_exact ? "exact" : "BROKEN") << ", "
              << r.false_positives << " false positive(s), SECA recovered "
              << r.seca_recoveries << "/" << r.seca_probes << "\n";
    obs_finish(o);
    plane.finish(o);

    if (o.json) {
        print_attack_json(cfg, r, std::cout);
        return r.clean() ? 0 : 1;
    }

    Ascii_table t({"tenant", "writes", "reads", "ok", "mac_mismatch", "replay",
                   "detections"});
    for (std::size_t i = 0; i < r.stats.tenants.size(); ++i) {
        const auto& c = r.stats.tenants[i];
        t.add_row({std::to_string(i), std::to_string(c.writes), std::to_string(c.reads),
                   std::to_string(c.ok), std::to_string(c.mac_mismatch),
                   std::to_string(c.replay_detected), std::to_string(c.failures.size())});
    }
    t.print(std::cout);
    std::cout << "injected " << r.plan.faults.size() << " fault(s), detected "
              << (r.detected_mac_mismatch + r.detected_replay_detected)
              << " (expected " << (r.expected_mac_mismatch + r.expected_replay_detected)
              << "); attribution " << (r.attribution_exact ? "exact" : "BROKEN")
              << ", false positives " << r.false_positives << ", control "
              << (r.control_identical ? "identical" : "PERTURBED") << ", clean "
              << (r.clean() ? "yes" : "NO") << "\n";
    return r.clean() ? 0 : 1;
}

int cmd_backends(const Options& o)
{
    const auto features = crypto::cpu_crypto_features();
    const char* aes_env = std::getenv("SEDA_AES_BACKEND");
    // Resolving the default here also emits the startup warning (once) if
    // the env override names an unknown or unavailable backend.
    const crypto::Aes_backend_kind selected = crypto::default_backend_kind();
    const auto kinds = crypto::all_backend_kinds();

    if (o.json) {
        std::string rows;
        for (const auto kind : kinds)
            rows += std::string(rows.empty() ? "" : ", ") +
                    "{\"name\": " + json_string(to_string(kind)) +
                    ", \"available\": " + (crypto::backend_available(kind) ? "true" : "false") +
                    ", \"selected\": " + (kind == selected ? "true" : "false") + "}";
        std::cout << "{\n  \"cpu\": {\"aes\": " << (features.aes ? "true" : "false")
                  << ", \"vaes\": " << (features.vaes ? "true" : "false")
                  << ", \"sha_ni\": " << (features.sha_ni ? "true" : "false")
                  << ", \"avx2\": " << (features.avx2 ? "true" : "false") << "},\n"
                  << "  \"env\": {\"SEDA_AES_BACKEND\": "
                  << (aes_env ? json_string(aes_env) : "null") << "},\n"
                  << "  \"aes\": {\"selected\": " << json_string(to_string(selected))
                  << ", \"backends\": [" << rows << "]}\n"
                  << "}\n";
        return 0;
    }

    const auto flag = [](bool b) { return b ? "yes" : "no"; };
    std::cout << "cpu features: aes=" << flag(features.aes) << " vaes=" << flag(features.vaes)
              << " sha_ni=" << flag(features.sha_ni) << " avx2=" << flag(features.avx2)
              << "\n"
              << "env overrides: SEDA_AES_BACKEND=" << (aes_env ? aes_env : "(unset)") << "\n";
    Ascii_table t({"interface", "backend", "available", "selected"});
    for (const auto kind : kinds)
        t.add_row({"aes", to_string(kind), flag(crypto::backend_available(kind)),
                   kind == selected ? "*" : ""});
    t.print(std::cout);
    return 0;
}

// ---------------------------------------------------------- command table ---

struct Command {
    std::string_view name;
    int (*handler)(const Options&);
    std::string_view help;  ///< one usage line
};

constexpr Command k_commands[] = {
    {"list", cmd_list, "workloads, NPUs and protection schemes"},
    {"run", cmd_run, "one (model, npu, scheme) combination"},
    {"report", cmd_report, "SCALE-Sim-style compute + memory reports"},
    {"suite", cmd_suite, "the full Fig. 5/6 sweep on one NPU"},
    {"loadgen", cmd_loadgen, "closed-loop multi-tenant serving load"},
    {"infer", cmd_infer, "replay DNN layer traces as protected traffic"},
    {"attack", cmd_attack, "seeded fault-injection campaign against the live server"},
    {"backends", cmd_backends, "detected CPU crypto features and backend selection"},
};

int usage(std::ostream& os)
{
    os << "usage: seda_cli <command> [options]\n"
          "\n"
          "commands:\n";
    for (const Command& c : k_commands)
        os << "  " << c.name
           << std::string(c.name.size() < 26 ? 26 - c.name.size() : 1, ' ') << c.help
           << "\n";
    os << "  help                      this message\n"
          "\n"
          "options:\n"
          "  --model M                 workload short or full name (run, report, infer;\n"
          "                            attack's inference traffic, default lenet)\n"
          "  --npu server|edge         NPU config (default server)\n"
          "  --scheme S                protection scheme (run; default seda)\n"
          "  --jobs N                  worker threads, 0 = hardware (run, suite,\n"
          "                            loadgen, infer, attack)\n"
          "  --csv                     CSV output (run, suite)\n"
          "  --json                    JSON output (suite, loadgen, infer, attack,\n"
          "                            backends)\n"
          "  --tenants N               tenants to serve (loadgen 2; infer 1; attack 3)\n"
          "  --clients N               closed-loop clients per tenant (loadgen 4;\n"
          "                            attack's background load, same default)\n"
          "  --requests N              requests per client (loadgen 64, attack 16) /\n"
          "                            inferences per tenant (infer 1)\n"
          "  --faults N                campaign plan size (attack; default 8)\n"
          "  --mode serve|session      infer replay path (default serve)\n"
          "  --seed S                  determinism seed (loadgen, infer, attack;\n"
          "                            default 24282)\n"
          "  --stages                  per-stage latency table on stderr (loadgen,\n"
          "                            infer, attack)\n"
          "  --stats-out FILE          Prometheus text scrape (loadgen, infer, attack)\n"
          "  --stats-json FILE         JSON metrics snapshot (loadgen, infer, attack)\n"
          "  --trace-out FILE          chrome://tracing span dump (loadgen, infer,\n"
          "                            attack)\n"
          "  --flight-out FILE         flight-recorder dump (loadgen, infer, attack);\n"
          "                            also auto-dumps on the first detection event\n"
          "  --listen PORT             serve live telemetry on 127.0.0.1:PORT while the\n"
          "                            run is live: /metrics /metrics.json /healthz\n"
          "                            /flight (loadgen, infer, attack; 0 = ephemeral,\n"
          "                            port printed on stderr)\n"
          "  --listen-linger MS        keep the exporter up MS ms after the run so a\n"
          "                            scraper can take a final pass\n"
          "  --watch MS                live interval table on stderr every MS ms:\n"
          "                            req/s, p50/p99/p999, per-tenant error rates\n"
          "  --slo SPEC                latency objective, repeatable; SPEC is\n"
          "                            FAMILY:pPCT<THRESH[us|ms|s]:TARGET, e.g.\n"
          "                            serve_tenant_latency_us:p99<500us:0.999\n"
          "  --slo-out FILE            SLO burn-rate report as JSON (default: stderr\n"
          "                            summary; never stdout)\n"
          "\n"
          "environment:\n"
          "  SEDA_OBS=0                disable stage metrics/trace collection at runtime\n"
          "  SEDA_OBS_SAMPLE=N         time every Nth span per thread (default 32; 1 = all)\n"
          "  SEDA_OBS_LISTEN=PORT      arm the telemetry endpoint like --listen PORT\n"
          "  (observability output never reaches stdout --json; docs/OBSERVABILITY.md)\n"
          "  SEDA_AES_BACKEND=scalar|ttable|aesni   process-wide AES round impl\n"
          "  (read once at startup; hardware kinds need CPU support -- run\n"
          "  `seda_cli backends` to see what this host resolves; docs/BACKENDS.md)\n";
    return os.rdbuf() == std::cout.rdbuf() ? 0 : 2;
}

Options parse(int argc, char** argv)
{
    Options o;
    if (argc > 1) o.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            require(i + 1 < argc, "seda_cli: missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--model") {
            o.model = next();
            o.model_set = true;
        } else if (arg == "--npu")
            o.npu = next();
        else if (arg == "--scheme")
            o.scheme = next();
        else if (arg == "--jobs")
            parse_int(arg, next(), o.jobs);
        else if (arg == "--tenants") {
            parse_int(arg, next(), o.tenants);
            o.tenants_set = true;
        } else if (arg == "--clients")
            parse_int(arg, next(), o.clients);
        else if (arg == "--requests") {
            parse_int(arg, next(), o.requests);
            o.requests_set = true;
        } else if (arg == "--faults")
            parse_int(arg, next(), o.faults);
        else if (arg == "--mode")
            o.mode = next();
        else if (arg == "--seed")
            parse_int(arg, next(), o.seed);
        else if (arg == "--stages")
            o.stages = true;
        else if (arg == "--stats-out")
            o.stats_out = next();
        else if (arg == "--stats-json")
            o.stats_json = next();
        else if (arg == "--trace-out")
            o.trace_out = next();
        else if (arg == "--flight-out")
            o.flight_out = next();
        else if (arg == "--listen") {
            parse_int(arg, next(), o.listen);
            require(o.listen <= 65535, "seda_cli: --listen expects a port (0-65535)");
            o.listen_set = true;
        } else if (arg == "--listen-linger")
            parse_int(arg, next(), o.listen_linger_ms);
        else if (arg == "--watch") {
            parse_int(arg, next(), o.watch_ms);
            require(o.watch_ms >= 1, "seda_cli: --watch expects an interval in ms (>= 1)");
        } else if (arg == "--slo")
            o.slos.push_back(next());
        else if (arg == "--slo-out")
            o.slo_out = next();
        else if (arg == "--csv")
            o.csv = true;
        else if (arg == "--json")
            o.json = true;
        else
            throw Seda_error("seda_cli: unknown argument '" + arg + "'");
    }
    return o;
}

}  // namespace

int main(int argc, char** argv)
{
    try {
        const Options o = parse(argc, argv);
        for (const Command& c : k_commands)
            if (o.command == c.name) return c.handler(o);
        if (o.command == "help" || o.command == "--help" || o.command == "-h")
            return usage(std::cout);
        if (!o.command.empty())
            std::cerr << "seda_cli: unknown command '" << o.command << "'\n";
        return usage(std::cerr);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
