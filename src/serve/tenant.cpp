#include "serve/tenant.h"

#include "common/error.h"
#include "crypto/kdf.h"

namespace seda::serve {

Tenant::Tenant(u32 id, std::span<const u8> master_enc, std::span<const u8> master_mac,
               core::Secure_mem_config cfg, runtime::Thread_pool& pool)
    : id_(id),
      enc_key_(crypto::derive_key(master_enc, "seda-tenant-enc", id)),
      mac_key_(crypto::derive_key(master_mac, "seda-tenant-mac", id)),
      session_(enc_key_, mac_key_, cfg, pool)
{
    // Per-tenant attribution for the forensic flight record: every flush
    // this session issues carries the tenant id.
    session_.set_flight_tenant(id);
}

u32 Tenant_table::add(std::span<const u8> master_enc, std::span<const u8> master_mac,
                      core::Secure_mem_config cfg, runtime::Thread_pool& pool)
{
    // Key derivation and session construction could run outside the lock,
    // but the id must be allocated first -- and churn is rare next to
    // dispatch, so the simple critical section wins.
    std::lock_guard lock(mutex_);
    const auto id = static_cast<u32>(size_.load(std::memory_order_relaxed));
    const std::size_t s = segment_of(id);
    if (!segments_[s]) segments_[s] = std::make_unique<Slot[]>(k_first << s);
    slot(id).tenant = std::make_unique<Tenant>(id, master_enc, master_mac, cfg, pool);
    size_.store(std::size_t{id} + 1, std::memory_order_release);  // publishes the slot
    return id;
}

void Tenant_table::evict(u32 id)
{
    std::lock_guard lock(mutex_);
    require(id < size(), "Tenant_table::evict: unknown tenant id");
    slot(id).evicted.store(true, std::memory_order_release);
}

}  // namespace seda::serve
