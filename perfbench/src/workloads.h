// The benchmark's workloads.  Each is a closed loop: every caller waits for
// its reply before it reuses its slot, as Server_sink, loadgen clients,
// attack probers and a stalled NPU tile all do.
//
//   serve_pipelined  4 tenants, 2 generator threads x 64 outstanding 64 B
//                    requests, 50/50 read/write over 256 slots per tenant.
//   infer_session    resnet18 on the server NPU, 2 tenants, each an engine
//                    thread over its own Secure_session (shared 2-worker pool).
//   infer_serve      the same model, seed and tenants through one Server,
//                    one Server_sink per tenant.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "probe.h"

namespace seda::serve {
class Server;
}

namespace perfbench {

/// Every workload moves 64 B protection units; protected_mbps counts them.
inline constexpr std::size_t k_unit_bytes = 64;

struct Options {
    u64 seed = 1;
    bool fault = false;  ///< tamper one stored unit before it is read
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Correctness accounting of one workload run.  Any error turns the run's
/// result into a failure report with no numbers.
struct Gate {
    u64 attempted = 0;  ///< unit operations issued
    u64 failed = 0;     ///< non-ok status, mirror mismatch, rejection or throw
    std::vector<std::string> errors;

    void expect(bool ok, std::string what)
    {
        if (!ok) errors.push_back(std::move(what));
    }
};

/// One timed phase.  Every workload reports the same end-to-end shape
/// (perfbench/README.md says what each figure is on each workload); a traced
/// phase also fills `layers`.
struct Phase {
    Phase() = default;
    /// Takes the end-to-end figures from the merged tally of every caller.
    explicit Phase(const Tally& all);

    u64 ops = 0;             ///< unit operations completed inside the phase
    double rps = 0.0;        ///< unit operations completed per second
    double op_mean_us = 0.0;     ///< unit op submit -> reply
    double cycle_mean_ms = 0.0;  ///< closed-loop cycle of one caller
    /// For the report: the op latency's 99th percentile and the rate of
    /// every second of the phase.
    double op_p99_us = 0.0;
    std::vector<double> second_rps;
    std::vector<Metric> layers;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Builds a fresh instance (replacing the previous one) and returns the
    /// set-up seconds: what setup_s measures.
    virtual double setup(Gate& gate) = 0;
    /// Untimed work between set-up and the first phase: warm-up traffic, the
    /// reference comparison, and the fault injection when asked for.
    virtual void warm_up(Gate& gate) = 0;
    virtual Phase run(double seconds, bool traced) = 0;
    /// Drains, then checks every output the run produced.
    virtual void finish(Gate& gate) = 0;
};

/// The serve layer's per-phase numbers, shared by every workload that runs
/// a Server: requests per coalesced batch, scheduler-thread busy share, and
/// the request critical-path shares from the program's own histograms.
class Server_layers {
public:
    Server_layers(const seda::serve::Server& server, Thread_set& sched)
        : server_(server), sched_(sched)
    {
    }
    void begin();
    void end(double wall, std::vector<Metric>& out) const;

private:
    const seda::serve::Server& server_;
    Thread_set& sched_;
    u64 requests0_ = 0, batches0_ = 0;
    std::vector<double> stages0_;
};

inline constexpr std::string_view k_workload_names[] = {"serve_pipelined", "infer_session",
                                                        "infer_serve"};

[[nodiscard]] std::unique_ptr<Workload> make_serve_pipelined(const Options& opt);
/// `through_server` picks infer_serve over infer_session.
[[nodiscard]] std::unique_ptr<Workload> make_infer(const Options& opt, bool through_server);

}  // namespace perfbench
