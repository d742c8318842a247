#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace seda::obs {

namespace {

enum class Metric_type : unsigned { counter = 0, gauge = 1, histogram = 2 };

struct Counter_cell {
    std::atomic<u64> value{0};
};

struct Gauge_cell {
    std::atomic<i64> value{0};
};

/// One thread's shard of a histogram: fixed atomic bucket array plus the
/// summary fields.  A cell has exactly one writer at a time (its owning
/// thread), so min/max are plain read-modify-writes; the scrape reads
/// everything relaxed and a record racing it simply lands in the next
/// snapshot.
struct Hist_cell {
    std::array<std::atomic<u64>, Log_bucketing::k_bucket_count> counts{};
    std::atomic<u64> sum_ticks{0};
    std::atomic<u64> min_ticks{~u64{0}};
    std::atomic<u64> max_ticks{0};
    // Largest exemplar offered to this shard: value (fixed-point ticks, so
    // relaxed u64 loads stay tear-free) plus the trace id that produced it.
    // Single writer like the rest of the cell.
    std::atomic<u64> exemplar_ticks{0};
    std::atomic<u64> exemplar_trace{0};

    void offer_exemplar(double v, u64 trace_id)
    {
        const u64 t = Log_bucketing::ticks_from(v);
        if (t < exemplar_ticks.load(std::memory_order_relaxed) &&
            exemplar_trace.load(std::memory_order_relaxed) != 0)
            return;
        exemplar_ticks.store(t, std::memory_order_relaxed);
        exemplar_trace.store(trace_id, std::memory_order_relaxed);
    }

    void record(double v)
    {
        // Single writer: plain load+store instead of lock-prefixed RMWs --
        // the scraper only ever reads, so there is nothing to win a race
        // against, and the hot path saves two locked instructions.
        const u64 t = Log_bucketing::ticks_from(v);
        auto& slot = counts[Log_bucketing::index_of(t)];
        slot.store(slot.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        sum_ticks.store(sum_ticks.load(std::memory_order_relaxed) + t,
                        std::memory_order_relaxed);
        if (t < min_ticks.load(std::memory_order_relaxed))
            min_ticks.store(t, std::memory_order_relaxed);
        if (t > max_ticks.load(std::memory_order_relaxed))
            max_ticks.store(t, std::memory_order_relaxed);
    }

    void reset()
    {
        for (auto& c : counts) c.store(0, std::memory_order_relaxed);
        sum_ticks.store(0, std::memory_order_relaxed);
        min_ticks.store(~u64{0}, std::memory_order_relaxed);
        max_ticks.store(0, std::memory_order_relaxed);
        exemplar_ticks.store(0, std::memory_order_relaxed);
        exemplar_trace.store(0, std::memory_order_relaxed);
    }
};

struct Metric {
    std::string name;  ///< family name, without the label
    std::string label_key, label_value;
    Metric_type type{};
    // Cells are owned here and never freed or moved (unique_ptr keeps each
    // address stable across vector growth).  A thread that exits donates its
    // cell to free_cells -- the VALUES stay live in the owning vector and
    // keep counting toward scrapes; only the slot is reused -- so the cell
    // population is bounded by the peak concurrent thread count.
    std::vector<std::unique_ptr<Counter_cell>> counter_cells;
    std::vector<std::unique_ptr<Gauge_cell>> gauge_cells;
    std::vector<std::unique_ptr<Hist_cell>> hist_cells;
    std::vector<void*> free_cells;
};

/// Per-thread cell pointers, indexed by metric id.  The destructor runs at
/// thread exit and donates the cells back to the (leaky, so still alive)
/// registry.
struct Thread_slots {
    std::vector<void*> cells;
    ~Thread_slots()
    {
        if (!cells.empty()) Metrics_registry::instance().release_cells(cells);
    }
};

thread_local Thread_slots t_slots;

template <typename Cell>
Cell* cell_for(u32 id)
{
    auto& cells = t_slots.cells;
    if (id < cells.size()) {
        if (void* c = cells[id]) return static_cast<Cell*>(c);
    }
    return static_cast<Cell*>(Metrics_registry::instance().acquire_cell(id));
}

}  // namespace

struct Metrics_registry::Impl {
    mutable std::mutex mutex;
    std::vector<Metric> metrics;
    std::unordered_map<std::string, u32> by_name;
};

Metrics_registry& Metrics_registry::instance()
{
    static Metrics_registry* const g = new Metrics_registry();
    return *g;
}

Metrics_registry::Metrics_registry() : impl_(new Impl) {}

bool enabled()
{
    static const bool on = [] {
        const char* env = std::getenv("SEDA_OBS");
        bool live = true;
        if (env != nullptr) {
            const std::string_view v(env);
            live = !(v == "0" || v == "off" || v == "OFF" || v == "false");
        }
        // Pre-trigger the tick calibration so the very first measured span
        // doesn't absorb the ~1 ms spin into an enclosing duration.
        if (live) (void)ticks_to_us(0);
        return live;
    }();
    return on;
}

#if defined(__x86_64__) || defined(_M_X64)
u64 now_ticks() { return __builtin_ia32_rdtsc(); }
#else
u64 now_ticks()
{
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now().time_since_epoch())
                                .count());
}
#endif

double ticks_to_us(u64 dt)
{
#if defined(__x86_64__) || defined(_M_X64)
    // One calibration per process: ~1 ms of steady_clock against the TSC.
    // Modern x86-64 has an invariant, socket-synchronized TSC, so one ratio
    // serves every thread; clock-read jitter (~20 ns) is <0.01% of the
    // window.  Thread-safe via the static-local guard.
    static const double us_per_tick = [] {
        const auto c0 = std::chrono::steady_clock::now();
        const u64 t0 = now_ticks();
        while (std::chrono::steady_clock::now() - c0 < std::chrono::milliseconds(1)) {}
        const u64 t1 = now_ticks();
        const auto c1 = std::chrono::steady_clock::now();
        const double us = std::chrono::duration<double, std::micro>(c1 - c0).count();
        return t1 > t0 ? us / static_cast<double>(t1 - t0) : 1e-3;
    }();
    return static_cast<double>(dt) * us_per_tick;
#else
    return static_cast<double>(dt) * 1e-3;  // now_ticks() counts nanoseconds
#endif
}

void Counter::add(u64 delta) const
{
    if (id_ == k_no_metric) return;
    cell_for<Counter_cell>(id_)->value.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::add(i64 delta) const
{
    if (id_ == k_no_metric) return;
    cell_for<Gauge_cell>(id_)->value.fetch_add(delta, std::memory_order_relaxed);
}

void Histogram::record(double v) const
{
    if (id_ == k_no_metric) return;
    cell_for<Hist_cell>(id_)->record(v);
}

void Histogram::record(double v, u64 trace_id) const
{
    if (id_ == k_no_metric) return;
    Hist_cell* cell = cell_for<Hist_cell>(id_);
    cell->record(v);
    if (trace_id != 0) cell->offer_exemplar(v, trace_id);
}

namespace {

/// Prometheus-compatible identifier: [a-zA-Z_][a-zA-Z0-9_]*.  Metric names
/// and label KEYS must satisfy this (they are emitted unescaped); label
/// VALUES stay free-form and are escaped at export time.
bool valid_identifier(std::string_view s)
{
    const auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    };
    if (s.empty() || !head(s[0])) return false;
    for (const char c : s.substr(1))
        if (!head(c) && !(c >= '0' && c <= '9')) return false;
    return true;
}

}  // namespace

u32 Metrics_registry::intern(std::string_view name, unsigned type,
                             std::string_view label_key, std::string_view label_value)
{
    require(valid_identifier(name),
            "obs: malformed metric name '" + std::string(name) +
                "' (want [a-zA-Z_][a-zA-Z0-9_]*)");
    require(label_key.empty() == label_value.empty(),
            "obs: metric label key and value must be set together");
    require(label_key.empty() || valid_identifier(label_key),
            "obs: malformed label key '" + std::string(label_key) +
                "' (want [a-zA-Z_][a-zA-Z0-9_]*)");
    // The interning key distinguishes series; the family name alone is what
    // must stay kind-consistent (a labeled family and an unlabeled metric of
    // the same name are one namespace, like Prometheus's).
    std::string key(name);
    if (!label_key.empty()) {
        key += '{';
        key += label_key;
        key += "=\"";
        key += label_value;
        key += "\"}";
    }
    std::lock_guard lock(impl_->mutex);
    const auto it = impl_->by_name.find(key);
    if (it != impl_->by_name.end()) {
        require(static_cast<unsigned>(impl_->metrics[it->second].type) == type,
                "obs: metric '" + key + "' is already registered with a different kind");
        return it->second;
    }
    for (const Metric& m : impl_->metrics)
        require(m.name != name || static_cast<unsigned>(m.type) == type,
                "obs: metric family '" + std::string(name) +
                    "' is already registered with a different kind");
    const u32 id = static_cast<u32>(impl_->metrics.size());
    Metric m;
    m.name = std::string(name);
    m.label_key = std::string(label_key);
    m.label_value = std::string(label_value);
    m.type = static_cast<Metric_type>(type);
    impl_->metrics.push_back(std::move(m));
    impl_->by_name.emplace(std::move(key), id);
    return id;
}

Counter Metrics_registry::counter(std::string_view name)
{
    if (!enabled()) return Counter{};
    return Counter{intern(name, static_cast<unsigned>(Metric_type::counter), {}, {})};
}

Gauge Metrics_registry::gauge(std::string_view name)
{
    if (!enabled()) return Gauge{};
    return Gauge{intern(name, static_cast<unsigned>(Metric_type::gauge), {}, {})};
}

Histogram Metrics_registry::histogram(std::string_view name)
{
    if (!enabled()) return Histogram{};
    return Histogram{intern(name, static_cast<unsigned>(Metric_type::histogram), {}, {})};
}

Counter Metrics_registry::counter(std::string_view name, std::string_view label_key,
                                  std::string_view label_value)
{
    if (!enabled()) return Counter{};
    return Counter{
        intern(name, static_cast<unsigned>(Metric_type::counter), label_key, label_value)};
}

Gauge Metrics_registry::gauge(std::string_view name, std::string_view label_key,
                              std::string_view label_value)
{
    if (!enabled()) return Gauge{};
    return Gauge{
        intern(name, static_cast<unsigned>(Metric_type::gauge), label_key, label_value)};
}

Histogram Metrics_registry::histogram(std::string_view name, std::string_view label_key,
                                      std::string_view label_value)
{
    if (!enabled()) return Histogram{};
    return Histogram{intern(name, static_cast<unsigned>(Metric_type::histogram),
                            label_key, label_value)};
}

void* Metrics_registry::acquire_cell(u32 id)
{
    std::lock_guard lock(impl_->mutex);
    require(id < impl_->metrics.size(), "obs: unknown metric id");
    Metric& m = impl_->metrics[id];
    void* cell = nullptr;
    if (!m.free_cells.empty()) {
        cell = m.free_cells.back();
        m.free_cells.pop_back();
    } else {
        switch (m.type) {
            case Metric_type::counter:
                cell = m.counter_cells.emplace_back(std::make_unique<Counter_cell>()).get();
                break;
            case Metric_type::gauge:
                cell = m.gauge_cells.emplace_back(std::make_unique<Gauge_cell>()).get();
                break;
            case Metric_type::histogram:
                cell = m.hist_cells.emplace_back(std::make_unique<Hist_cell>()).get();
                break;
        }
    }
    auto& cells = t_slots.cells;
    if (cells.size() < impl_->metrics.size()) cells.resize(impl_->metrics.size(), nullptr);
    cells[id] = cell;
    return cell;
}

void Metrics_registry::release_cells(const std::vector<void*>& cells)
{
    std::lock_guard lock(impl_->mutex);
    for (std::size_t id = 0; id < cells.size() && id < impl_->metrics.size(); ++id)
        if (cells[id] != nullptr) impl_->metrics[id].free_cells.push_back(cells[id]);
}

Snapshot Metrics_registry::scrape() const
{
    Snapshot snap;
    scrape_into(snap);
    return snap;
}

void Metrics_registry::scrape_into(Snapshot& snap) const
{
    // Rows are assigned in place by index: string assignment and
    // Log_histogram::clear() keep their buffers, so a warm snapshot
    // re-scrapes without touching the allocator (the registry only ever
    // grows, so the final shrink-resizes never discard warmed rows).
    std::size_t nc = 0;
    std::size_t ng = 0;
    std::size_t nh = 0;
    std::lock_guard lock(impl_->mutex);
    for (const Metric& m : impl_->metrics) {
        switch (m.type) {
            case Metric_type::counter: {
                if (snap.counters.size() <= nc) snap.counters.emplace_back();
                auto& row = snap.counters[nc++];
                row.name = m.name;
                row.label_key = m.label_key;
                row.label_value = m.label_value;
                u64 total = 0;
                for (const auto& c : m.counter_cells)
                    total += c->value.load(std::memory_order_relaxed);
                row.value = total;
                break;
            }
            case Metric_type::gauge: {
                if (snap.gauges.size() <= ng) snap.gauges.emplace_back();
                auto& row = snap.gauges[ng++];
                row.name = m.name;
                row.label_key = m.label_key;
                row.label_value = m.label_value;
                i64 total = 0;
                for (const auto& c : m.gauge_cells)
                    total += c->value.load(std::memory_order_relaxed);
                row.value = total;
                break;
            }
            case Metric_type::histogram: {
                if (snap.histograms.size() <= nh) snap.histograms.emplace_back();
                auto& row = snap.histograms[nh++];
                row.name = m.name;
                row.label_key = m.label_key;
                row.label_value = m.label_value;
                row.hist.clear();
                row.exemplar_trace_id = 0;
                row.exemplar_value = 0;
                u64 best_ticks = 0;
                for (const auto& c : m.hist_cells) {
                    for (std::size_t i = 0; i < c->counts.size(); ++i) {
                        const u64 n = c->counts[i].load(std::memory_order_relaxed);
                        if (n != 0) row.hist.absorb_bucket(i, n);
                    }
                    row.hist.absorb_summary(c->sum_ticks.load(std::memory_order_relaxed),
                                            c->min_ticks.load(std::memory_order_relaxed),
                                            c->max_ticks.load(std::memory_order_relaxed));
                    const u64 trace = c->exemplar_trace.load(std::memory_order_relaxed);
                    const u64 ticks = c->exemplar_ticks.load(std::memory_order_relaxed);
                    if (trace != 0 && (row.exemplar_trace_id == 0 || ticks > best_ticks)) {
                        best_ticks = ticks;
                        row.exemplar_trace_id = trace;
                        row.exemplar_value =
                            Log_bucketing::value_from_ticks(static_cast<double>(ticks));
                    }
                }
                break;
            }
        }
    }
    snap.counters.resize(nc);
    snap.gauges.resize(ng);
    snap.histograms.resize(nh);
    const auto by_name = [](const auto& a, const auto& b) {
        if (a.name != b.name) return a.name < b.name;
        return a.label_value < b.label_value;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
}

void Metrics_registry::reset()
{
    std::lock_guard lock(impl_->mutex);
    for (Metric& m : impl_->metrics) {
        for (auto& c : m.counter_cells) c->value.store(0, std::memory_order_relaxed);
        for (auto& c : m.gauge_cells) c->value.store(0, std::memory_order_relaxed);
        for (auto& c : m.hist_cells) c->reset();
    }
}

}  // namespace seda::obs
