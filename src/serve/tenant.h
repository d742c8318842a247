// One tenant of the secure serving layer: isolated keys, isolated memory,
// isolated freshness state.
//
// Multi-tenant isolation is the deployment-critical scenario of the
// GuardNN/SEALs line the paper builds on: many mutually distrusting models
// share one accelerator, so per-tenant data must stay confidential and
// integrity-protected *against the other tenants*, not just the bus
// adversary.  A Tenant therefore owns the full vertical slice:
//
//   * keys     - (enc, mac) derived from the server master keys with
//                crypto::derive_key(label, tenant id); no two tenants --
//                and no tenant and the master -- share a key.
//   * memory   - its own core::Secure_memory (own unit map, own on-chip VN
//                table), fronted by a runtime::Secure_session that shares
//                the server-wide Thread_pool.  Address spaces of different
//                tenants overlap freely and never alias.
//   * engines  - the session's per-worker Baes/Cmac engines are keyed with
//                the tenant keys, so a unit spliced from another tenant's
//                memory fails MAC verification (tests/serve/ holds this,
//                tamper and replay included).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/secure_memory.h"
#include "runtime/secure_session.h"
#include "runtime/thread_pool.h"

namespace seda::serve {

class Tenant {
public:
    /// Derives this tenant's key pair from the master keys and builds its
    /// session over the shared `pool` (which must outlive the tenant).
    Tenant(u32 id, std::span<const u8> master_enc, std::span<const u8> master_mac,
           core::Secure_mem_config cfg, runtime::Thread_pool& pool);

    [[nodiscard]] u32 id() const { return id_; }

    /// The tenant's sharded session (and, through memory(), the attacker
    /// interface the isolation tests drive).
    [[nodiscard]] runtime::Secure_session& session() { return session_; }
    [[nodiscard]] const runtime::Secure_session& session() const { return session_; }

    // Derived keys, exposed for the isolation experiments: "tenant A's
    // engines reject tenant B's units" is only testable if A's keys can be
    // put in front of B's memory.
    [[nodiscard]] std::span<const u8> enc_key() const { return enc_key_; }
    [[nodiscard]] std::span<const u8> mac_key() const { return mac_key_; }

private:
    u32 id_;
    std::vector<u8> enc_key_;  ///< derive_key(master_enc, "seda-tenant-enc", id)
    std::vector<u8> mac_key_;  ///< derive_key(master_mac, "seda-tenant-mac", id)
    runtime::Secure_session session_;
};

/// Registry of a server's tenants, shared by the submit side (validation),
/// the scheduler thread (dispatch), and live-churn callers
/// (Server::add_tenant / evict_tenant).  Ids are dense indices and slots
/// are never reused: eviction tombstones a slot instead of destroying it,
/// because the Tenant object must outlive every request already admitted
/// for it, and a stable unique_ptr per slot keeps Tenant* valid across
/// concurrent add()s (the backing vector may reallocate; the tenants do
/// not move).
///
/// Thread-safety: all methods safe from any thread.  find() hands out raw
/// pointers that stay valid for the table's lifetime; the Tenant itself
/// follows its own threading rules (one batch call at a time per session).
class Tenant_table {
public:
    /// Builds the next tenant (keys derived from the master pair) and
    /// returns its id.
    u32 add(std::span<const u8> master_enc, std::span<const u8> master_mac,
            core::Secure_mem_config cfg, runtime::Thread_pool& pool);

    /// Tombstones `id`: find() keeps resolving it (requests already
    /// admitted complete normally), accepting() turns false (new submits
    /// are rejected at the door).  Throws Seda_error for an unknown id;
    /// idempotent on a known one.
    void evict(u32 id);

    /// Slots ever created, tombstones included (valid ids are < size()).
    [[nodiscard]] std::size_t size() const;

    /// Known and not evicted -- may new requests be admitted for `id`?
    [[nodiscard]] bool accepting(u32 id) const;

    /// The tenant behind `id`, tombstoned or not; nullptr when the id was
    /// never created.
    [[nodiscard]] Tenant* find(u32 id) const;

private:
    struct Slot {
        std::unique_ptr<Tenant> tenant;
        bool evicted = false;
    };

    mutable std::mutex mutex_;
    std::vector<Slot> slots_;
};

}  // namespace seda::serve
