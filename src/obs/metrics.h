// Process-wide metrics registry: named counters, gauges, and log-scale
// latency histograms with lock-free per-thread shards.
//
// Hot-path contract: a handle (Counter/Gauge/Histogram) holds only a metric
// id.  Recording does one thread-local slot lookup plus relaxed atomic
// updates on this thread's private cell -- no locks, no allocation after
// the first touch.  The registry mutex is taken only on registration, on a
// thread's first touch of a metric, at thread exit (cells are donated back
// to a free list for the next thread, so memory is bounded by the PEAK
// concurrent thread count), and on scrape (which folds every cell).
//
// Determinism rules (load-bearing, see docs/OBSERVABILITY.md): everything
// in here is timing-bound.  Nothing recorded through this registry may feed
// the deterministic stdout --json contracts -- exports go to stderr or to
// explicit files, and the --json goldens hold the JSON byte-identical with
// observability on, off (SEDA_OBS=0) and timing every span (SEDA_OBS_SAMPLE=1).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/histogram.h"

namespace seda::obs {

/// Whether the runtime hot paths are live: not switched off by
/// SEDA_OBS=0|off|false (resolved once per process, like the crypto
/// backends' env overrides).  When false every handle is unarmed and every
/// record is a no-op.
[[nodiscard]] bool enabled();

/// Raw monotonic timestamp for span timing: the TSC on x86-64 (a few ns per
/// read -- cheap enough to sit inside the serve dispatch loop), a
/// steady_clock read elsewhere.
[[nodiscard]] u64 now_ticks();

/// Microseconds spanned by `dt` raw ticks.  The tick rate is calibrated
/// against steady_clock once per process (~1 ms spin on first use;
/// enabled(), Trace_recorder::start() and serve::Server's constructor
/// pre-trigger it so no measured span or request absorbs the stall).
[[nodiscard]] double ticks_to_us(u64 dt);

/// Microseconds from tick `from` to tick `to`, or 0 when `to` is the
/// earlier one: TSC reads on two threads need not be ordered.
[[nodiscard]] inline double ticks_between_us(u64 from, u64 to)
{
    return to > from ? ticks_to_us(to - from) : 0.0;
}

inline constexpr u32 k_no_metric = 0xFFFFFFFFu;

/// Monotonically increasing count (exported as a Prometheus counter).
class Counter {
public:
    Counter() = default;
    void add(u64 delta = 1) const;
    [[nodiscard]] bool armed() const { return id_ != k_no_metric; }

private:
    friend class Metrics_registry;
    explicit Counter(u32 id) : id_(id) {}
    u32 id_ = k_no_metric;
};

/// Up/down instantaneous value (scraped as the sum over every shard, so
/// inc-on-one-thread / dec-on-another nets out correctly).
class Gauge {
public:
    Gauge() = default;
    void add(i64 delta) const;
    [[nodiscard]] bool armed() const { return id_ != k_no_metric; }

private:
    friend class Metrics_registry;
    explicit Gauge(u32 id) : id_(id) {}
    u32 id_ = k_no_metric;
};

/// Log-bucketed value distribution (Log_histogram semantics, sharded).
class Histogram {
public:
    Histogram() = default;
    void record(double v) const;
    /// Records `v` and, when `trace_id` is non-zero, offers it as this
    /// shard's exemplar: the scrape surfaces the largest exemplar value per
    /// histogram with its trace id, linking the worst sampled observation
    /// back to its request trace.
    void record(double v, u64 trace_id) const;
    [[nodiscard]] bool armed() const { return id_ != k_no_metric; }

private:
    friend class Metrics_registry;
    explicit Histogram(u32 id) : id_(id) {}
    u32 id_ = k_no_metric;
};

/// One scrape: every metric's shards merged, rows sorted by (name, label)
/// so two scrapes of a quiesced process are identical -- CI and tests rely
/// on it.  `label_key`/`label_value` are empty for unlabeled series; rows
/// of one family (same name, different label values) are adjacent.
struct Snapshot {
    struct Counter_row {
        std::string name;
        std::string label_key, label_value;
        u64 value = 0;
    };
    struct Gauge_row {
        std::string name;
        std::string label_key, label_value;
        i64 value = 0;
    };
    struct Histogram_row {
        std::string name;
        std::string label_key, label_value;
        Log_histogram hist;
        u64 exemplar_trace_id = 0;  ///< 0 = no exemplar captured
        double exemplar_value = 0;
    };
    std::vector<Counter_row> counters;
    std::vector<Gauge_row> gauges;
    std::vector<Histogram_row> histograms;
};

class Metrics_registry {
public:
    /// The process-wide registry.  Leaky singleton: threads may still record
    /// (and donate cells at exit) while statics are being destroyed.
    static Metrics_registry& instance();

    Metrics_registry(const Metrics_registry&) = delete;
    Metrics_registry& operator=(const Metrics_registry&) = delete;

    /// Registers (or re-opens) a named metric.  Re-registering the same
    /// name with the same kind returns a handle onto the same metric;
    /// re-registering it as a different kind throws.  When !enabled() the
    /// returned handle is unarmed and nothing is registered.
    Counter counter(std::string_view name);
    Gauge gauge(std::string_view name);
    Histogram histogram(std::string_view name);

    /// Labeled-series variants: one (key, value) label pair, giving
    /// per-tenant scoping ("serve_tenant_ok_total", "tenant", "3").  Each
    /// distinct (name, value) pair is its own series; a family's rows share
    /// the name and sort adjacently in the scrape.  A family name must not
    /// collide with a differently-kinded metric, labeled or not.
    Counter counter(std::string_view name, std::string_view label_key,
                    std::string_view label_value);
    Gauge gauge(std::string_view name, std::string_view label_key,
                std::string_view label_value);
    Histogram histogram(std::string_view name, std::string_view label_key,
                        std::string_view label_value);

    /// Merges every per-thread shard into one snapshot.  Concurrent-safe;
    /// a record racing the scrape lands in this snapshot or the next.
    [[nodiscard]] Snapshot scrape() const;

    /// scrape() into a caller-owned snapshot, reusing its row vectors,
    /// strings, and histogram bucket buffers: after the first call on a
    /// stable registry, re-scraping allocates nothing -- the contract the
    /// periodic snapshot differ (obs/snapshot.h) and the HTTP exporter's
    /// per-request scrape rely on to stay off the allocator.
    void scrape_into(Snapshot& snap) const;

    /// Zeroes every cell in place (metric names stay registered).  Only
    /// meaningful when recorders are quiesced; for tests and benches.
    void reset();

    // Internal (backing the handle hot paths and thread-exit cleanup).
    void* acquire_cell(u32 id);
    void release_cells(const std::vector<void*>& cells);

private:
    Metrics_registry();
    u32 intern(std::string_view name, unsigned type, std::string_view label_key,
               std::string_view label_value);

    struct Impl;
    Impl* impl_;
};

}  // namespace seda::obs
