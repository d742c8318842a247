#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/table.h"
#include "core/verify_status.h"

namespace seda::obs {

const char* to_string(Flight_kind k)
{
    switch (k) {
        case Flight_kind::window: return "window";
        case Flight_kind::flush_write: return "flush_write";
        case Flight_kind::flush_read: return "flush_read";
        case Flight_kind::fallback: return "fallback";
        case Flight_kind::inject: return "inject";
        case Flight_kind::detect: return "detect";
        case Flight_kind::infer_detect: return "infer_detect";
    }
    return "?";
}

namespace {

struct Trace_event {
    Stage stage;
    std::string detail;
    u64 t0, t1;
    char phase = 0;  ///< 0 = complete ("X") span; 's'/'t'/'f' = flow event
    u64 flow_id = 0;
};

struct Flight_event {
    u64 ticks = 0;
    u64 seq = 0;  ///< per-ring append ordinal (ties broken deterministically)
    u64 addr = 0;
    u64 n = 0;
    u64 bytes = 0;
    u32 tenant = k_flight_no_tenant;
    u32 layer = 0, fmap = 0, blk = 0;
    Flight_kind kind{};
    u8 status = 0;
};

/// One thread's event log.  The two stores keep different events: the
/// trace keeps the first spans after start() and counts the rest, the
/// flight ring keeps the newest events and counts what it overwrote.  The
/// mutex is uncontended except against a drain or dump; the always-on
/// flight fields sit right after it, where the per-flush append reads them.
struct Thread_log {
    std::mutex mutex;
    u64 appended = 0;  ///< flight events ever appended (head = appended % cap)
    std::vector<Flight_event> ring;  ///< sized k_ring_capacity on first use
    std::vector<Trace_event> spans;  ///< drained by write_json
    u64 dropped = 0;                 ///< spans refused at the per-thread cap
    u32 thread = 0;  ///< 1-based registration order: chrome tid and flight thread

    void add_span(Trace_event e)
    {
        std::lock_guard lock(mutex);
        if (spans.size() >= Trace_recorder::k_max_events_per_thread) {
            ++dropped;
            return;
        }
        spans.push_back(std::move(e));
    }

    void add_flight(const Flight_event& e)
    {
        std::lock_guard lock(mutex);
        if (ring.empty()) ring.resize(Flight_recorder::k_ring_capacity);
        Flight_event& slot = ring[appended % Flight_recorder::k_ring_capacity];
        slot = e;
        slot.seq = appended++;
    }
};

std::mutex g_mutex;  ///< guards the log list

/// All logs ever created, leaky so events from exited threads survive
/// until the drain or dump and thread_local pointers never dangle.
std::vector<std::unique_ptr<Thread_log>>& logs()
{
    static auto* const v = new std::vector<std::unique_ptr<Thread_log>>();
    return *v;
}

thread_local Thread_log* t_log = nullptr;

Thread_log& local_log()
{
    if (t_log == nullptr) {
        std::lock_guard lock(g_mutex);
        auto& all = logs();
        all.push_back(std::make_unique<Thread_log>());
        all.back()->thread = static_cast<u32>(all.size());
        t_log = all.back().get();
    }
    return *t_log;
}

/// Runs `f` on every log under the list lock and then that log's mutex,
/// the one lock order every reader of other threads' logs takes.
template <typename F>
void for_each_log(F f)
{
    std::lock_guard lock(g_mutex);
    for (auto& log : logs()) {
        std::lock_guard llock(log->mutex);
        f(*log);
    }
}

std::string fmt_us(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us);
    return buf;
}

std::atomic<bool> g_active{false};
std::atomic<u64> g_origin{0};  ///< ticks at start(); the ts origin

std::atomic<u64> g_detections{0};

std::mutex g_auto_mutex;  ///< serializes auto-dumps and guards the path

std::string& auto_dump_path()
{
    static auto* const p = new std::string();
    return *p;
}

void render(std::ostream& os, const Flight_event& e, u32 thread, u64 origin)
{
    os << "{\"t_us\": " << fmt_us(ticks_to_us(e.ticks - origin)) << ", \"thread\": " << thread
       << ", \"seq\": " << e.seq << ", \"kind\": \"" << to_string(e.kind) << "\"";
    if (e.tenant != k_flight_no_tenant) os << ", \"tenant\": " << e.tenant;
    os << ", \"addr\": " << e.addr;
    if (e.kind == Flight_kind::detect || e.kind == Flight_kind::infer_detect) {
        os << ", \"layer\": " << e.layer << ", \"fmap\": " << e.fmap
           << ", \"blk\": " << e.blk << ", \"status\": \""
           << core::to_string(static_cast<core::Verify_status>(e.status)) << "\"";
    } else {
        os << ", \"n\": " << e.n << ", \"bytes\": " << e.bytes;
    }
    os << "}";
}

}  // namespace

void Trace_recorder::start()
{
    (void)ticks_to_us(0);  // calibrate before anything is measured
    g_origin.store(now_ticks(), std::memory_order_relaxed);
    g_active.store(true, std::memory_order_release);
    detail::g_span_arm.fetch_or(detail::k_arm_trace, std::memory_order_relaxed);
}

bool Trace_recorder::active() { return g_active.load(std::memory_order_acquire); }

void Trace_recorder::emit(Stage s, std::string_view detail, u64 t0, u64 t1)
{
    if (active()) local_log().add_span({s, std::string(detail), t0, t1, 0, 0});
}

void Trace_recorder::emit_flow(char phase, u64 id, u64 t)
{
    if (active()) local_log().add_span({Stage::count_, {}, t, t, phase, id});
}

u64 Trace_recorder::dropped()
{
    u64 total = 0;
    for_each_log([&](const Thread_log& log) { total += log.dropped; });
    return total;
}

void Trace_recorder::write_json(std::ostream& os)
{
    g_active.store(false, std::memory_order_release);
    detail::g_span_arm.fetch_and(static_cast<u8>(~detail::k_arm_trace),
                                 std::memory_order_relaxed);
    const u64 origin = g_origin.load(std::memory_order_relaxed);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for_each_log([&](Thread_log& log) {
        for (const Trace_event& e : log.spans) {
            const u64 rel0 = e.t0 >= origin ? e.t0 - origin : 0;
            os << (first ? "\n" : ",\n");
            first = false;
            if (e.phase != 0) {
                // Flow event: name/cat/id tie the three phases together.
                os << "{\"name\": \"req\", \"cat\": \"req\", \"ph\": \"" << e.phase
                   << "\", \"id\": " << e.flow_id << ", \"pid\": 1, \"tid\": " << log.thread
                   << ", \"ts\": " << fmt_us(ticks_to_us(rel0))
                   << (e.phase == 'f' ? ", \"bp\": \"e\"}" : "}");
                continue;
            }
            const u64 dur = e.t1 >= e.t0 ? e.t1 - e.t0 : 0;
            os << "{\"name\": \"" << stage_trace_name(e.stage) << (e.detail.empty() ? "" : ":")
               << json_escaped(e.detail) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
               << log.thread << ", \"ts\": " << fmt_us(ticks_to_us(rel0))
               << ", \"dur\": " << fmt_us(ticks_to_us(dur)) << "}";
        }
        log.spans.clear();
    });
    os << "\n]}\n";
}

void Flight_recorder::record(Flight_kind k, u32 tenant, u64 addr, u64 n, u64 bytes)
{
    if (!enabled()) return;
    local_log().add_flight(
        {.ticks = now_ticks(), .addr = addr, .n = n, .bytes = bytes, .tenant = tenant, .kind = k});
}

void Flight_recorder::detect(Flight_kind k, u32 tenant, u64 addr, u32 layer, u32 fmap,
                             u32 blk, u8 status)
{
    if (!enabled()) return;
    local_log().add_flight({.ticks = now_ticks(),
                            .addr = addr,
                            .tenant = tenant,
                            .layer = layer,
                            .fmap = fmap,
                            .blk = blk,
                            .kind = k,
                            .status = status});
    g_detections.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard lock(g_auto_mutex);
    const std::string& path = auto_dump_path();
    if (path.empty()) return;
    std::ofstream os(path, std::ios::trunc);
    if (!os) return;
    const u64 n_events = dump(os);
    std::fprintf(stderr, "flight recorder: detection -> dumped %llu events to %s\n",
                 static_cast<unsigned long long>(n_events), path.c_str());
}

void Flight_recorder::arm_auto_dump(std::string path)
{
    std::lock_guard lock(g_auto_mutex);
    auto_dump_path() = std::move(path);
}

u64 Flight_recorder::detections() { return g_detections.load(std::memory_order_relaxed); }

u64 Flight_recorder::dump(std::ostream& os)
{
    // Gather under the locks, then merge-sort by (ticks, thread, seq):
    // ticks are one invariant-TSC domain, so the order is the bus order up
    // to tie-breaks, and a quiesced process dumps byte-identically.
    std::vector<std::pair<u32, Flight_event>> all;
    u64 overwritten = 0;
    for_each_log([&](const Thread_log& log) {
        const u64 kept = std::min<u64>(log.appended, k_ring_capacity);
        overwritten += log.appended - kept;
        for (u64 i = log.appended - kept; i < log.appended; ++i)
            all.emplace_back(log.thread, log.ring[i % k_ring_capacity]);
    });
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
        if (a.second.ticks != b.second.ticks) return a.second.ticks < b.second.ticks;
        if (a.first != b.first) return a.first < b.first;
        return a.second.seq < b.second.seq;
    });
    const u64 origin = all.empty() ? 0 : all.front().second.ticks;

    os << "{\"events\": " << all.size() << ", \"detections\": " << detections()
       << ", \"overwritten\": " << overwritten << ", \"flight\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
        os << (i ? ",\n " : "\n ");
        render(os, all[i].second, all[i].first, origin);
    }
    os << (all.empty() ? "" : "\n") << "]}\n";
    return all.size();
}

bool Flight_recorder::dump_flight(const std::string& path)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    dump(os);
    return true;
}

void Flight_recorder::reset()
{
    for_each_log([](Thread_log& log) { log.appended = 0; });
    g_detections.store(0, std::memory_order_relaxed);
}

}  // namespace seda::obs
