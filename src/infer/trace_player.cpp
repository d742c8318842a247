#include "infer/trace_player.h"

#include <sys/mman.h>

#include <new>

#include "common/bitutil.h"
#include "common/error.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace seda::infer {

namespace {
constexpr Bytes k_unit = Model_binding::k_unit_bytes;
}

Trace_player::Mirror::Mirror(const Model_binding& binding)
{
    // One anonymous mapping, not a heap block: freeing a multi-MB block
    // raises glibc's dynamic mmap/trim thresholds, after which freed
    // Secure_memory pages can stay resident in thread arenas (a process
    // that builds and drops engines, like perfbench's repeated set-ups,
    // then swings its peak RSS by tens of MB run to run).  The pages are
    // zero-filled on first touch, which clears every written flag.
    const std::size_t slots = binding.units().size();
    const std::size_t bytes = std::max<std::size_t>(1, slots * (k_unit + sizeof(u64) + 1));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    map_ = std::span<u8>(static_cast<u8*>(p), bytes);
    units_ = map_.first(slots * k_unit);
    hashes_ = map_.subspan(units_.size(), slots * sizeof(u64));
    written_ = map_.subspan(units_.size() + hashes_.size(), slots);
}

Trace_player::Mirror::~Mirror() { ::munmap(map_.data(), map_.size()); }

void Trace_player::Mirror::record(u32 slot, std::span<const u8> plaintext)
{
    require(plaintext.size() == k_unit, "Trace_player::Mirror: payload is not one unit");
    std::copy(plaintext.begin(), plaintext.end(), unit(slot).begin());
    const u64 h = fnv1a64(plaintext.data(), plaintext.size());
    std::memcpy(hashes_.subspan(slot * sizeof(u64), sizeof(u64)).data(), &h, sizeof h);
    written_[slot] = 1;
}

Trace_player::Trace_player(const Model_binding& binding, std::size_t max_batch_units)
    : binding_(binding), max_batch_units_(max_batch_units)
{
    require(max_batch_units_ >= 1, "Trace_player: max_batch_units must be >= 1");
}

void Trace_player::expand_range(const accel::Access_range& r, std::vector<Addr>& out)
{
    accel::for_each_block(r, [&](Addr a) { out.push_back(a); });
}

void Trace_player::play_layer(const accel::Layer_sim& layer, Unit_sink& sink,
                              Mirror& mirror, const Payload_fn& fresh_payload,
                              Layer_infer_stats& stats)
{
    // Synthetic traces (tests) may carry no layer descriptor.
    obs::Stage_span span(obs::Stage::infer_layer,
                         layer.layer != nullptr ? std::string_view(layer.layer->name)
                                                : std::string_view{});
    pending_.clear();
    for (const accel::Access_range& r : layer.trace) {
        if (!pending_.empty() && r.is_write != pending_is_write_)
            flush(sink, mirror, fresh_payload);
        pending_is_write_ = r.is_write;
        append(r.first_block(), r.end_block(), stats.by_kind(r.tensor), sink, mirror,
               fresh_payload);
    }
    flush(sink, mirror, fresh_payload);
}

void Trace_player::stage_units(std::span<const Addr> addrs, Unit_sink& sink,
                               Mirror& mirror, const Payload_fn& fresh_payload,
                               Unit_counters& counters)
{
    pending_.clear();
    pending_is_write_ = true;
    // Stretches of consecutive units resolve as runs, like trace ranges.
    for (std::size_t i = 0; i < addrs.size();) {
        std::size_t j = i + 1;
        while (j < addrs.size() && addrs[j] == addrs[j - 1] + k_unit) ++j;
        append(addrs[i], addrs[j - 1] + k_unit, counters, sink, mirror, fresh_payload);
        i = j;
    }
    flush(sink, mirror, fresh_payload);
}

void Trace_player::append(Addr first, Addr end, Unit_counters& counters, Unit_sink& sink,
                          Mirror& mirror, const Payload_fn& fresh_payload)
{
    binding_.for_each_run(first, end, [&](const Model_binding::Unit_run& run) {
        for (u32 k = 0; k < run.units; ++k) {
            pending_.push_back({run.addr + k * k_unit,
                                run.first_slot + k,
                                {run.ctx.layer_id, run.ctx.fmap_idx, run.ctx.blk_idx + k},
                                &counters});
            if (pending_.size() >= max_batch_units_) flush(sink, mirror, fresh_payload);
        }
    });
}

void Trace_player::flush(Unit_sink& sink, Mirror& mirror, const Payload_fn& fresh_payload)
{
    if (pending_.empty()) return;
    if (pending_is_write_)
        dispatch_writes(sink, mirror, fresh_payload);
    else
        dispatch_reads(sink, mirror);
    pending_.clear();
}

void Trace_player::dispatch_writes(Unit_sink& sink, Mirror& mirror,
                                   const Payload_fn& fresh_payload)
{
    const std::size_t n = pending_.size();
    payload_buf_.resize(n * k_unit);
    writes_.clear();
    writes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Pending_unit& p = pending_[i];
        const std::span<u8> payload(payload_buf_.data() + i * k_unit, k_unit);
        fresh_payload(p.addr, payload);
        writes_.push_back({p.addr, payload, p.ctx.layer_id, p.ctx.fmap_idx, p.ctx.blk_idx});
    }
    sink.write_units(writes_);
    // Serial semantics: a duplicate address in one batch leaves the LAST
    // payload live (stage_writes's supersede rule); walking in order gives
    // the mirror the same final state.
    for (std::size_t i = 0; i < n; ++i) {
        mirror.record(pending_[i].slot, writes_[i].plaintext);
        Unit_counters& c = *pending_[i].counters;
        ++c.writes;
        ++c.ok;
        c.bytes += k_unit;
    }
}

void Trace_player::dispatch_reads(Unit_sink& sink, const Mirror& mirror)
{
    const std::size_t n = pending_.size();
    payload_buf_.resize(n * k_unit);
    reads_.clear();
    reads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Pending_unit& p = pending_[i];
        const std::span<u8> out(payload_buf_.data() + i * k_unit, k_unit);
        reads_.push_back({p.addr, out, p.ctx.layer_id, p.ctx.fmap_idx, p.ctx.blk_idx});
    }
    statuses_.resize(n);
    sink.read_units(reads_, statuses_);
    for (std::size_t i = 0; i < n; ++i) {
        const Pending_unit& p = pending_[i];
        Unit_counters& c = *p.counters;
        ++c.reads;
        switch (statuses_[i]) {
            case core::Verify_status::ok: {
                const std::span<const u8> got = reads_[i].out;
                ++c.ok;
                c.bytes += k_unit;
                if (mirror.holds(p.slot, got)) {
                    c.payload_fold ^= mirror.hash(p.slot);
                } else {
                    c.payload_fold ^= fnv1a64(got.data(), got.size());
                    ++c.data_mismatches;
                }
                break;
            }
            case core::Verify_status::mac_mismatch:
                ++c.mac_mismatch;
                c.failure_log.push_back({p.addr, statuses_[i]});
                note_failure(i);
                break;
            case core::Verify_status::replay_detected:
                ++c.replay_detected;
                c.failure_log.push_back({p.addr, statuses_[i]});
                note_failure(i);
                break;
        }
    }
}

void Trace_player::note_failure(std::size_t i)
{
    // Forensic record of the detection as the replay layer saw it (the
    // serve path additionally records a tenant-attributed `detect` from the
    // scheduler; this one fires on the session path too).
    const auto& r = reads_[i];
    obs::Flight_recorder::detect(obs::Flight_kind::infer_detect, obs::k_flight_no_tenant,
                                 r.addr, r.layer_id, r.fmap_idx, r.blk_idx,
                                 static_cast<u8>(statuses_[i]));
}

}  // namespace seda::infer
