// seda_bench: runs the benchmark's workloads against the SeDA library and
// prints one JSON result line.
//
//   seda_bench --workload NAME|all --seed N --seconds S --trace 0|1 [--fault]
//
// --trace 0 measures the end-to-end metrics of the named workload (or of
// every workload, names prefixed, for `all`).  --trace 1 always runs every
// workload, an untraced and a traced phase each, and reports the per-layer
// metrics prefixed by workload: the layer report compares workloads (the
// infer_serve / infer_session front-end tax) and the traced run against the
// untraced one.  --fault tampers one stored unit before it is read; the
// correctness gate must then fail the run.
//
// Output: a report line (host fingerprint, per-workload accounting, gate
// errors), then the result line:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
// A failed gate prints an empty metrics object and exits 1.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes_backend.h"
#include "crypto/sha256_backend.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef SEDA_BENCH_BUILD_TYPE
#define SEDA_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per end-to-end run: at least k_min_setups, and more until they
/// have taken k_min_setup_wall_s (cheap set-ups repeat more); setup_s is
/// their median.
constexpr std::size_t k_min_setups = 5;
constexpr std::size_t k_max_setups = 101;
constexpr double k_min_setup_wall_s = 2.0;

std::string json_string(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_list(const std::vector<double>& values, double scale = 1.0)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + json_number(values[i] * scale);
    return out + "]";
}

std::string cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string host_json()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int usable = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
    const auto f = seda::crypto::cpu_crypto_features();
    std::ostringstream o;
    o << std::boolalpha << "{\"nproc\": " << usable
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << json_string(cpu_model()) << ", \"cpu_crypto\": {\"aes\": "
      << f.aes << ", \"vaes\": " << f.vaes << ", \"sha_ni\": " << f.sha_ni
      << ", \"avx2\": " << f.avx2 << "}, \"aes_backend\": "
      << json_string(to_string(seda::crypto::default_backend_kind()))
      << ", \"sha_backend\": "
      << json_string(to_string(seda::crypto::default_sha256_backend_kind()))
      << ", \"build_type\": " << json_string(SEDA_BENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"obs_enabled\": " << seda::obs::enabled() << "}";
    return o.str();
}

struct Args {
    std::string workload;
    Options opt;
    double seconds = 10.0;
    bool trace = false;
};

bool parse(int argc, char** argv, Args& a)
{
    bool seen_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--fault") {
            a.opt.fault = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
                seen_workload = true;
            } else if (flag == "--seed") {
                a.opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return false;
                a.trace = value == "1";
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    if (!seen_workload || !(a.seconds > 0.0)) return false;
    if (a.workload == "all") return true;
    for (std::string_view name : k_workload_names)
        if (a.workload == name) return true;
    return false;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const Options& opt)
{
    if (name == "serve_pipelined") return make_serve_pipelined(opt);
    return make_infer(opt, name == "infer_serve");
}

/// What one workload contributed to the run.
struct Outcome {
    std::string name;
    Gate gate;
    Phase plain;   ///< the untraced phase
    std::vector<Metric> metrics;
};

Outcome run_end_to_end(std::string_view name, const Args& a)
{
    Outcome out{std::string(name), {}, {}, {}};
    auto workload = make_workload(name, a.opt);
    std::vector<double> setups;
    const Clock::time_point t0 = Clock::now();
    while (setups.size() < k_min_setups ||
           (setups.size() < k_max_setups && seconds_between(t0, Clock::now()) < k_min_setup_wall_s))
        setups.push_back(workload->setup(out.gate));
    workload->warm_up(out.gate);
    reset_peak_rss();
    out.plain = workload->run(a.seconds, false);
    workload->finish(out.gate);
    out.metrics = {
        {"setup_s", median(setups), "s"},
        {"protected_mbps", out.plain.rps * static_cast<double>(k_unit_bytes) / 1e6, "MB/s"},
        {"op_mean_us", out.plain.op_mean_us, "us"},
        {"cycle_mean_ms", out.plain.cycle_mean_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return out;
}

Outcome run_traced(std::string_view name, const Args& a)
{
    Outcome out{std::string(name), {}, {}, {}};
    auto workload = make_workload(name, a.opt);
    // Three workloads, two phases each: the whole traced run measures about
    // as long as one untraced run.
    const double phase = std::max(1.0, a.seconds / 6.0);
    workload->setup(out.gate);
    workload->warm_up(out.gate);
    out.plain = workload->run(phase, false);
    const Phase traced = workload->run(phase, true);
    workload->finish(out.gate);
    out.metrics = traced.layers;
    out.metrics.push_back({"trace.overhead_frac", out.plain.rps / traced.rps - 1.0, "ratio"});
    return out;
}

int run(const Args& a)
{
    std::vector<std::string> names;
    if (a.trace || a.workload == "all")
        names.assign(std::begin(k_workload_names), std::end(k_workload_names));
    else
        names.push_back(a.workload);
    const bool prefix = names.size() > 1;

    std::vector<Outcome> outcomes;
    for (const std::string& name : names) {
        try {
            outcomes.push_back(a.trace ? run_traced(name, a) : run_end_to_end(name, a));
        } catch (const std::exception& e) {
            Outcome failed{name, {}, {}, {}};
            failed.gate.errors.push_back(name + ": " + e.what());
            outcomes.push_back(std::move(failed));
        }
    }

    std::vector<Metric> metrics;
    for (const Outcome& o : outcomes)
        for (const Metric& m : o.metrics)
            metrics.push_back({prefix ? o.name + "." + m.name : m.name, m.value, m.unit});
    if (a.trace) {
        // The front-end tax: the same bytes through the Server instead of
        // direct sessions, as a ratio of mean infer() times (untraced phases).
        const double session = outcomes[1].plain.cycle_mean_ms;
        const double served = outcomes[2].plain.cycle_mean_ms;
        metrics.push_back({"infer_serve.infer.front_end_tax",
                           session > 0.0 ? served / session : 0.0, "ratio"});
    }

    bool correct = true;
    u64 attempted = 0, failed = 0;
    std::ostringstream report;
    report << "{\"report\": {\"host\": " << host_json() << ", \"workloads\": {";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& o = outcomes[i];
        attempted += o.gate.attempted;
        failed += o.gate.failed;
        correct = correct && o.gate.errors.empty() && o.gate.attempted > 0;
        const double fail_ratio = o.gate.attempted == 0
            ? 1.0
            : static_cast<double>(o.gate.failed) / static_cast<double>(o.gate.attempted);
        report << (i ? ", " : "") << json_string(o.name) << ": {\"attempted\": "
               << o.gate.attempted << ", \"failed\": " << o.gate.failed
               << ", \"fail_ratio\": " << json_number(fail_ratio)
               << ", \"phase_ops\": " << o.plain.ops
               << ", \"op_p99_us\": " << json_number(o.plain.op_p99_us)
               << ", \"second_mbps\": " << json_list(o.plain.second_rps, k_unit_bytes / 1e6)
               << ", \"gate_errors\": [";
        for (std::size_t e = 0; e < o.gate.errors.size(); ++e)
            report << (e ? ", " : "") << json_string(o.gate.errors[e]);
        report << "]}";
    }
    report << "}}}";
    for (const Metric& m : metrics) {
        if (std::isfinite(m.value)) continue;
        correct = false;
        std::cerr << "seda_bench: metric " << m.name << " is not finite\n";
    }
    std::cout << report.str() << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
              << std::max<u64>(attempted, 1) << ", \"failed\": " << failed
              << ", \"metrics\": {";
    if (correct)
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::cout << (i ? ", " : "") << json_string(metrics[i].name)
                      << ": {\"value\": " << json_number(metrics[i].value)
                      << ", \"unit\": " << json_string(metrics[i].unit) << "}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

Phase::Phase(const Tally& all)
    : ops(all.ops()),
      rps(all.rate()),
      op_mean_us(all.latency_mean_us()),
      cycle_mean_ms(all.cycle_mean_ms()),
      op_p99_us(all.latency_us(99.0)),
      second_rps(all.second_rates())
{
}

}  // namespace perfbench

int main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::parse(argc, argv, args)) {
        std::cerr << "usage: seda_bench --workload serve_pipelined|infer_session|infer_serve|all"
                     " --seed N --seconds S --trace 0|1 [--fault]\n";
        return 2;
    }
    return perfbench::run(args);
}
