#include "runtime/secure_session.h"

#include "obs/trace.h"

namespace seda::runtime {

Secure_session::Secure_session(std::span<const u8> enc_key, std::span<const u8> mac_key,
                               core::Secure_mem_config cfg, std::size_t workers)
    : mem_(enc_key, mac_key, cfg),
      owned_pool_(std::make_unique<Thread_pool>(workers)),
      pool_(owned_pool_.get())
{
    build_workers(enc_key, mac_key);
}

Secure_session::Secure_session(std::span<const u8> enc_key, std::span<const u8> mac_key,
                               core::Secure_mem_config cfg, Thread_pool& pool)
    : mem_(enc_key, mac_key, cfg), pool_(&pool)
{
    build_workers(enc_key, mac_key);
}

void Secure_session::build_workers(std::span<const u8> enc_key, std::span<const u8> mac_key)
{
    workers_.reserve(pool_->size() + 1);
    for (std::size_t w = 0; w <= pool_->size(); ++w)
        workers_.push_back(
            {crypto::Baes_engine(enc_key), crypto::Cmac_engine(mac_key), {}});
}

void Secure_session::write_units(std::span<const core::Secure_memory::Unit_write> batch)
{
    obs::Flight_recorder::record(obs::Flight_kind::flush_write, flight_tenant_,
                                 batch.empty() ? 0 : batch.front().addr, batch.size(),
                                 batch.size() * mem_.config().unit_bytes);
    // The bus adversary's window: between flushes, before any unit of this
    // batch is staged, on the one thread that owns the memory right now.
    mem_.pull_dram_tap();

    // Validation, VN bumps and cell claims happen here, serially and in
    // batch order -- so a bad entry throws before any worker starts.
    const auto slots = mem_.stage_writes(batch);

    pool_->parallel_for(slots.size(), [&](std::size_t executor, Index_range range) {
        Worker_state& ws = workers_[executor];
        // Whole-chunk bulk phase: B-AES per slot, then every MAC of the
        // chunk through one bulk CMAC call
        // (superseded entries are skipped inside).
        core::Secure_memory::encrypt_slots(slots.subspan(range.begin, range.size()),
                                           ws.baes, ws.mac, ws.scratch);
    });
}

std::vector<core::Verify_status> Secure_session::read_units(
    std::span<const core::Secure_memory::Unit_read> batch)
{
    obs::Flight_recorder::record(obs::Flight_kind::flush_read, flight_tenant_,
                                 batch.empty() ? 0 : batch.front().addr, batch.size(),
                                 batch.size() * mem_.config().unit_bytes);
    // Same adversary window as the write path: before any verification of
    // this batch starts, never concurrent with it.
    mem_.pull_dram_tap();

    std::vector<core::Verify_status> statuses(batch.size());
    pool_->parallel_for(batch.size(), [&](std::size_t executor, Index_range range) {
        Worker_state& ws = workers_[executor];
        // Chunk-wide bulk verify-and-decrypt: expected MACs batch through
        // the CMAC waves, statuses land in this chunk's slice.
        mem_.read_units_with(batch.subspan(range.begin, range.size()), ws.baes,
                             ws.mac, ws.scratch,
                             std::span<core::Verify_status>(statuses)
                                 .subspan(range.begin, range.size()));
    });
    return statuses;
}

}  // namespace seda::runtime
