// Measurement helpers shared by the benchmark workloads.
//
// Everything here observes the program from outside: wall clocks around
// calls into public functions, per-thread CPU time from /proc, and the
// process's peak RSS.  Nothing is timed inside the library.
#pragma once

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/histogram.h"

namespace perfbench {

using seda::u32;
using seda::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
[[nodiscard]] u64 thread_cpu_ns();

/// Thread ids of this process right now (/proc/self/task).
[[nodiscard]] std::set<int> task_ids();

/// Threads present in `after` but not in `before`: how the benchmark finds
/// the threads a constructor or start() spawned without asking the program.
[[nodiscard]] std::vector<int> new_tasks(const std::set<int>& before,
                                         const std::set<int>& after);

/// Summed on-CPU time of `tids` in nanoseconds (schedstat, falling back to
/// the clock-tick utime+stime of /proc/self/task/<tid>/stat).
[[nodiscard]] u64 tasks_cpu_ns(const std::vector<int>& tids);

/// On-CPU time of a fixed set of threads between begin() and busy_frac().
class Thread_set {
public:
    Thread_set() = default;
    explicit Thread_set(std::vector<int> tids) : tids_(std::move(tids)) {}

    void begin() { start_ns_ = tasks_cpu_ns(tids_); }
    /// CPU seconds the set used since begin().
    [[nodiscard]] double cpu_seconds() const;
    /// cpu_seconds() over (`wall` x thread count).
    [[nodiscard]] double busy_frac(double wall) const;
    [[nodiscard]] std::size_t size() const { return tids_.size(); }

private:
    std::vector<int> tids_;
    u64 start_ns_ = 0;
};

/// Summed values of the program's serve_req_{queue,window,crypto,complete}_us
/// histograms, read through a registry scrape (the request critical path the
/// program already records; the benchmark only differences two scrapes).
[[nodiscard]] std::vector<double> serve_req_stage_sums();
inline constexpr const char* k_req_stages[] = {"queue", "window", "crypto", "complete"};

/// Returns freed heap to the OS and restarts the peak-RSS count, so a later
/// peak_rss_mb() covers only what follows: the set-up repetitions and the
/// warm-up's reference replay would otherwise set the peak.
void reset_peak_rss();

/// Peak resident set since reset_peak_rss() (or process start), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `values` (0 for an empty set).
[[nodiscard]] double median(std::vector<double> values);

/// Unit operations completed inside one timed phase, with the latency each
/// waited, and the closed-loop cycles of its callers.  Each thread owns one;
/// phases merge them after join.  The end-to-end figures are means over the
/// whole phase: a shared host's speed switches between levels for seconds
/// at a time, and a mean moves with the share of time spent at each level,
/// where a median (of slices, or of pooled latencies) jumps from one level
/// to the other.  Per-second completion counts are kept for the report.
class Tally {
public:
    Tally(Clock::time_point start, Clock::time_point deadline);

    [[nodiscard]] bool in_phase(Clock::time_point t) const
    {
        return t >= start_ && t < deadline_;
    }
    /// Counts `ops` completions at `t` that each waited `latency_us`;
    /// completions outside the phase are dropped.
    void complete(Clock::time_point t, u64 ops, double latency_us);
    /// Records one caller cycle of `ms` that ended at `t`.
    void cycle(Clock::time_point t, double ms);
    void merge(const Tally& o);

    [[nodiscard]] u64 ops() const { return latency_.count(); }
    /// Completions per second over the whole phase.
    [[nodiscard]] double rate() const;
    /// Completions per second of each whole second of the phase.
    [[nodiscard]] std::vector<double> second_rates() const;
    [[nodiscard]] double latency_us(double pct) const { return latency_.percentile(pct); }
    [[nodiscard]] double latency_mean_us() const { return latency_.mean(); }
    [[nodiscard]] double cycle_mean_ms() const { return cycle_.mean(); }

private:
    Clock::time_point start_, deadline_;
    seda::obs::Log_histogram latency_, cycle_;
    std::vector<u64> second_ops_;
};

}  // namespace perfbench
