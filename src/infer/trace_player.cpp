#include "infer/trace_player.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/error.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace seda::infer {

namespace {
constexpr Bytes k_unit = Model_binding::k_unit_bytes;
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
    addrs_.clear();
    kinds_.clear();
    for (const accel::Access_range& r : layer.trace) {
        if (!addrs_.empty() && r.is_write != pending_is_write_)
            flush(sink, mirror, fresh_payload, stats);
        pending_is_write_ = r.is_write;
        accel::for_each_block(r, [&](Addr a) {
            addrs_.push_back(a);
            kinds_.push_back(r.tensor);
            if (addrs_.size() >= max_batch_units_)
                flush(sink, mirror, fresh_payload, stats);
        });
    }
    flush(sink, mirror, fresh_payload, stats);
}

void Trace_player::stage_units(std::span<const Addr> addrs, Unit_sink& sink,
                               Mirror& mirror, const Payload_fn& fresh_payload,
                               Unit_counters& counters)
{
    for (std::size_t begin = 0; begin < addrs.size(); begin += max_batch_units_) {
        const auto chunk =
            addrs.subspan(begin, std::min(max_batch_units_, addrs.size() - begin));
        addrs_.assign(chunk.begin(), chunk.end());
        counter_refs_.assign(addrs_.size(), &counters);
        dispatch_writes(sink, mirror, fresh_payload, counter_refs_);
        addrs_.clear();
    }
    kinds_.clear();
}

void Trace_player::flush(Unit_sink& sink, Mirror& mirror, const Payload_fn& fresh_payload,
                         Layer_infer_stats& stats)
{
    if (addrs_.empty()) return;
    counter_refs_.clear();
    counter_refs_.reserve(addrs_.size());
    for (const accel::Tensor_kind k : kinds_) counter_refs_.push_back(&stats.by_kind(k));
    if (pending_is_write_)
        dispatch_writes(sink, mirror, fresh_payload, counter_refs_);
    else
        dispatch_reads(sink, mirror, counter_refs_);
    addrs_.clear();
    kinds_.clear();
}

void Trace_player::dispatch_writes(Unit_sink& sink, Mirror& mirror,
                                   const Payload_fn& fresh_payload,
                                   std::span<Unit_counters* const> per_unit)
{
    const std::size_t n = addrs_.size();
    payload_buf_.resize(n * k_unit);
    writes_.clear();
    writes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<u8> payload(payload_buf_.data() + i * k_unit, k_unit);
        fresh_payload(addrs_[i], payload);
        const auto ctx = binding_.context(addrs_[i]);
        writes_.push_back({addrs_[i], payload, ctx.layer_id, ctx.fmap_idx, ctx.blk_idx});
    }
    sink.write_units(writes_);
    // Serial semantics: a duplicate address in one batch leaves the LAST
    // payload live (stage_writes's supersede rule); walking in order gives
    // the mirror the same final state.
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<const u8> payload(payload_buf_.data() + i * k_unit, k_unit);
        mirror[addrs_[i]].assign(payload.begin(), payload.end());
        Unit_counters& c = *per_unit[i];
        ++c.writes;
        ++c.ok;
        c.bytes += k_unit;
    }
}

void Trace_player::dispatch_reads(Unit_sink& sink, const Mirror& mirror,
                                  std::span<Unit_counters* const> per_unit)
{
    const std::size_t n = addrs_.size();
    payload_buf_.resize(n * k_unit);
    reads_.clear();
    reads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<u8> out(payload_buf_.data() + i * k_unit, k_unit);
        const auto ctx = binding_.context(addrs_[i]);
        reads_.push_back({addrs_[i], out, ctx.layer_id, ctx.fmap_idx, ctx.blk_idx});
    }
    statuses_.resize(n);
    sink.read_units(reads_, statuses_);
    for (std::size_t i = 0; i < n; ++i) {
        Unit_counters& c = *per_unit[i];
        ++c.reads;
        switch (statuses_[i]) {
            case core::Verify_status::ok: {
                const std::span<const u8> payload(payload_buf_.data() + i * k_unit,
                                                  k_unit);
                ++c.ok;
                c.bytes += k_unit;
                c.payload_fold ^= fnv1a64(payload.data(), payload.size());
                const auto it = mirror.find(addrs_[i]);
                if (it == mirror.end() ||
                    !std::equal(payload.begin(), payload.end(), it->second.begin(),
                                it->second.end()))
                    ++c.data_mismatches;
                break;
            }
            case core::Verify_status::mac_mismatch:
                ++c.mac_mismatch;
                c.failure_log.push_back({addrs_[i], statuses_[i]});
                note_failure(i);
                break;
            case core::Verify_status::replay_detected:
                ++c.replay_detected;
                c.failure_log.push_back({addrs_[i], statuses_[i]});
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
