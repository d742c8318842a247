#include "probe.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace perfbench {

u64 thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ULL + static_cast<u64>(ts.tv_nsec);
}

std::set<int> task_ids()
{
    std::set<int> ids;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
        ids.insert(std::stoi(entry.path().filename().string()));
    return ids;
}

std::vector<int> new_tasks(const std::set<int>& before, const std::set<int>& after)
{
    std::vector<int> added;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(added));
    return added;
}

namespace {

u64 task_cpu_ns(int tid)
{
    const std::string dir = "/proc/self/task/" + std::to_string(tid);
    if (std::ifstream sched(dir + "/schedstat"); sched) {
        u64 on_cpu_ns = 0;
        if (sched >> on_cpu_ns) return on_cpu_ns;
    }
    std::ifstream stat(dir + "/stat");
    std::string line;
    if (!std::getline(stat, line)) return 0;  // the thread has exited
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    u64 utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14) utime = std::stoull(field);
        if (i == 15) stime = std::stoull(field);
    }
    return (utime + stime) * 1'000'000'000ULL / static_cast<u64>(sysconf(_SC_CLK_TCK));
}

/// Records `n` samples of value `v` in one step (a batch of units that all
/// waited the same call).
void record_n(seda::obs::Log_histogram& h, double v, u64 n)
{
    using seda::obs::Log_bucketing;
    const u64 ticks = Log_bucketing::ticks_from(v);
    h.absorb_bucket(Log_bucketing::index_of(ticks), n);
    h.absorb_summary(ticks * n, ticks, ticks);
}

}  // namespace

u64 tasks_cpu_ns(const std::vector<int>& tids)
{
    u64 total = 0;
    for (int tid : tids) total += task_cpu_ns(tid);
    return total;
}

double Thread_set::cpu_seconds() const
{
    return static_cast<double>(tasks_cpu_ns(tids_) - start_ns_) / 1e9;
}

double Thread_set::busy_frac(double wall) const
{
    if (tids_.empty() || wall <= 0.0) return 0.0;
    return cpu_seconds() / (wall * static_cast<double>(tids_.size()));
}

std::vector<double> serve_req_stage_sums()
{
    std::vector<double> sums;
    const seda::obs::Snapshot snap = seda::obs::Metrics_registry::instance().scrape();
    for (const char* stage : k_req_stages) {
        const std::string name = std::string("serve_req_") + stage + "_us";
        double sum = 0.0;
        for (const auto& row : snap.histograms)
            if (row.name == name && row.label_key.empty()) sum = row.hist.sum();
        sums.push_back(sum);
    }
    return sums;
}

void reset_peak_rss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset the peak RSS
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM line in /proc/self/status");
}

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1) return values[mid];
    const double upper = values[mid];
    const double lower = *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

Tally::Tally(Clock::time_point start, Clock::time_point deadline)
    : start_(start),
      deadline_(deadline),
      second_ops_(static_cast<std::size_t>(std::ceil(seconds_between(start, deadline))))
{
}

void Tally::complete(Clock::time_point t, u64 ops, double latency_us)
{
    if (!in_phase(t)) return;
    record_n(latency_, latency_us, ops);
    second_ops_[static_cast<std::size_t>(seconds_between(start_, t))] += ops;
}

void Tally::cycle(Clock::time_point t, double ms)
{
    if (in_phase(t)) cycle_.record(ms);
}

void Tally::merge(const Tally& o)
{
    latency_.merge(o.latency_);
    cycle_.merge(o.cycle_);
    for (std::size_t i = 0; i < second_ops_.size(); ++i) second_ops_[i] += o.second_ops_[i];
}

double Tally::rate() const
{
    return static_cast<double>(ops()) / seconds_between(start_, deadline_);
}

std::vector<double> Tally::second_rates() const
{
    // A last, partial second is scaled to its length.
    const double phase = seconds_between(start_, deadline_);
    std::vector<double> rates;
    for (std::size_t i = 0; i < second_ops_.size(); ++i)
        rates.push_back(static_cast<double>(second_ops_[i]) /
                        std::min(1.0, phase - static_cast<double>(i)));
    return rates;
}

}  // namespace perfbench
