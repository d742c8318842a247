// Parallel, multi-worker front end over core::Secure_memory.
//
// A tile transfer is embarrassingly parallel on the crypto axis: every unit
// is encrypted/MAC'd (or verified/decrypted) independently.  What is *not*
// parallel is the bookkeeping -- VN bumps and arena cell claims mutate the
// trusted on-chip state in write order.  Secure_session splits the two:
//
//   write_units:  serial stage (Secure_memory::stage_writes -- VN per entry,
//                 cell per address, duplicate entries superseded exactly as
//                 serial ordering would) then the expensive crypto phase
//                 fanned across contiguous chunks, each chunk running
//                 batched base OTPs, B-AES per unit and one bulk
//                 AES-CMAC call for its whole slot range
//                 (encrypt_slots).
//   read_units:   no staging needed; each chunk bulk-verifies and decrypts
//                 its contiguous range via the const read_units_with path.
//
// Chunks run on the calling thread plus every pool worker: the caller and
// the pool's helpers claim them from one counter (Thread_pool::
// parallel_for).  A batch under 128 units -- a serving-layer flush of a
// few dozen requests, say -- is one chunk and runs on the caller's thread
// with no task and no allocation, so there is one dispatch path for every
// batch size.
//
// Determinism contract: chunk bounds are arithmetic on (n, workers) --
// shard_ranges(n, clamp(n / 64, 1, 8 * (workers + 1))) -- and which
// executor runs a chunk depends on scheduling, but neither is observable:
// every unit's ciphertext/MAC depends only on its own slot, so the
// resulting memory state and statuses are bit-for-bit identical to the
// serial batch path at ANY worker count -- including which units of a
// tampered tile report mac_mismatch / replay_detected
// (tests/runtime/secure_session_test.cpp holds this against the serial
// path on ragged sizes).
//
// Thread-safety: every executor owns its own Worker_state -- one for the
// caller (executor 0) plus one per pool worker (executor 1 + w), each a
// Baes_engine / Cmac_engine pair (keyed with the session keys) plus the
// bulk crypto scratch, reused across batches -- so no crypto state is
// shared at all and the steady-state batch path allocates no crypto
// scratch.  The session itself is thread-compatible like its substrate:
// one batch call at a time per session; the attacker interface stays
// available through memory().
//
// Pool sharing: a session either owns its Thread_pool (the standalone
// constructors) or borrows one (the serving layer runs one pool under many
// tenant sessions).  Distinct sessions sharing a pool may dispatch
// concurrently -- each session's Worker_state array is private, and a
// caller that finds the workers busy with another session's chunks runs
// its own chunks itself instead of waiting for them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/secure_memory.h"
#include "crypto/baes.h"
#include "crypto/mac.h"
#include "runtime/thread_pool.h"

namespace seda::runtime {

class Secure_session {
public:
    /// `workers == 0` means Thread_pool::default_workers().  Keys are the
    /// same pair Secure_memory takes; each worker gets engines keyed with
    /// them.
    Secure_session(std::span<const u8> enc_key, std::span<const u8> mac_key,
                   core::Secure_mem_config cfg = {}, std::size_t workers = 0);

    /// Shares `pool` instead of owning one; `pool` must outlive the
    /// session.  Worker_states as the owning constructor builds them: one
    /// for the caller plus one per pool worker.
    Secure_session(std::span<const u8> enc_key, std::span<const u8> mac_key,
                   core::Secure_mem_config cfg, Thread_pool& pool);

    /// The underlying memory: serial I/O, fold_all_macs, and the attacker
    /// interface (tamper/swap/snapshot/rollback) all remain usable.
    [[nodiscard]] core::Secure_memory& memory() { return mem_; }
    [[nodiscard]] const core::Secure_memory& memory() const { return mem_; }

    /// Pool workers; bulk calls spread over these plus the calling thread.
    [[nodiscard]] std::size_t workers() const { return pool_->size(); }

    /// Tags this session's flight-recorder flush events with a tenant id
    /// (obs/trace.h; default: untagged).  The serving layer sets it so the
    /// forensic record attributes bus activity per tenant.
    void set_flight_tenant(u32 tenant) { flight_tenant_ = tenant; }

    /// Parallel batch write; state afterwards is bit-identical to
    /// memory().write_units(batch).
    void write_units(std::span<const core::Secure_memory::Unit_write> batch);

    /// Parallel batch read; statuses and plaintext are identical to
    /// memory().read_units(batch), with per-unit tamper/replay detection.
    [[nodiscard]] std::vector<core::Verify_status> read_units(
        std::span<const core::Secure_memory::Unit_read> batch);

private:
    /// Shared-nothing per-executor state: engines keyed with the session keys
    /// plus the bulk crypto scratch, which persists across batches so the
    /// steady-state path is allocation-free.
    struct Worker_state {
        crypto::Baes_engine baes;
        crypto::Cmac_engine mac;
        core::Secure_memory::Bulk_scratch scratch;
    };

    void build_workers(std::span<const u8> enc_key, std::span<const u8> mac_key);

    core::Secure_memory mem_;
    u32 flight_tenant_ = 0xFFFFFFFFu;      ///< obs::k_flight_no_tenant until tagged
    std::vector<Worker_state> workers_;    ///< by executor: [0] the caller, [1 + w] pool worker w
    std::unique_ptr<Thread_pool> owned_pool_;  ///< null when the pool is shared
    Thread_pool* pool_;                    ///< owned_pool_.get() or the shared pool
};

}  // namespace seda::runtime
