// Functional model of SeDA's protected off-chip memory.
//
// Unlike the trace-level simulators (which price traffic and time), this
// class *runs the real crypto* on real bytes: writes encrypt with B-AES,
// bump the on-chip version number and store a positional MAC; reads decrypt
// and verify.  The untrusted side of the threat model is explicit: the
// attacker interface mutates, swaps, or rolls back stored units exactly the
// way a bus/memory adversary would (Sec. II-D), and the tests assert which
// attacks each configuration catches:
//
//   tampering      - caught by the MAC (any configuration)
//   re-permutation - caught by the positional MAC binding PA/layer/blk
//   replay         - caught only with freshness on (on-chip VNs); with VNs
//                    stored in the untrusted memory itself, rollback wins,
//                    which is precisely why MGX/TNPU/SeDA keep them on-chip.
//
// Storage is a paged unit arena.  Units live in fixed pages of
// k_page_units consecutive unit addresses, created on the first write into
// them: a contiguous ciphertext slab plus mac[] and stored_vn[] arrays (the
// untrusted side) and the on-chip vn[] array (the trusted side), reached
// through one page table keyed by page number.  Finding a unit is one table
// probe per page change plus an index, and there is no per-unit allocation.
// Pages are never freed, and one isolated unit costs one whole page:
// k_page_units x (unit_bytes + 24 B), 5.5 KiB at 64 B units.
//
// There is one write path and one read path.  A batch write stages serially
// (validate, bump VNs, claim cells, supersede in-batch duplicates) and then
// runs all its crypto through the bulk pipelines (encrypt_slots: batched
// base OTPs, then one bulk AES-CMAC call); a batch read locates every
// unit, computes every expected MAC and base OTP in bulk, then compares and
// decrypts per unit (read_units_with).  write()/read() are batches of one,
// so a tile issued one unit at a time is bit-for-bit identical to the same
// tile in one call (tests/core/secure_memory_batch_test.cpp holds this).
#pragma once

#include <array>
#include <atomic>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/verify_status.h"
#include "crypto/baes.h"
#include "crypto/mac.h"
#include "dram/dram_tap.h"

namespace seda::core {

struct Secure_mem_config {
    Bytes unit_bytes = 64;  ///< protection-unit size (one MAC per unit)
    /// true: VNs live on-chip (replay-protected).  false: the VN is
    /// stored next to the unit in untrusted memory -- rollback becomes
    /// invisible (the vulnerable strawman).
    bool onchip_vns = true;
};

class Secure_memory {
    struct Page;

public:
    using Config = Secure_mem_config;

    /// Units per arena page (see the header comment for what a page costs).
    static constexpr std::size_t k_page_units = 64;

    /// A unit as the attacker sees it: ciphertext + stored metadata.  A copy
    /// out of the arena (snapshot) and the only shape rollback accepts.
    struct Stored_unit {
        std::vector<u8> ciphertext;
        u64 mac = 0;
        u64 stored_vn = 0;  ///< only meaningful when !onchip_vns
    };

    /// One unit of a batch write: unit-aligned address, unit-sized payload.
    struct Unit_write {
        Addr addr = 0;
        std::span<const u8> plaintext;
        u32 layer_id = 0;
        u32 fmap_idx = 0;
        u32 blk_idx = 0;
    };

    /// One unit of a batch read: unit-aligned address, unit-sized out buffer.
    struct Unit_read {
        Addr addr = 0;
        std::span<u8> out;
        u32 layer_id = 0;
        u32 fmap_idx = 0;
        u32 blk_idx = 0;
    };

    Secure_memory(std::span<const u8> enc_key, std::span<const u8> mac_key,
                  Config cfg = Config());

    /// Encrypts and stores one unit-aligned, unit-sized write: a batch of
    /// one.  The version number increments per write (Eq. 1); position
    /// fields bind the MAC (Alg. 2 defense).
    void write(Addr addr, std::span<const u8> plaintext, u32 layer_id, u32 fmap_idx,
               u32 blk_idx);

    /// Reads, decrypts and verifies one unit (a batch of one).  `out` must
    /// be unit-sized.
    [[nodiscard]] Verify_status read(Addr addr, std::span<u8> out, u32 layer_id,
                                     u32 fmap_idx, u32 blk_idx);

    /// Batch write: one tile transfer's worth of units in a single call.
    /// Equivalent to write() per entry, in order.
    void write_units(std::span<const Unit_write> batch);

    /// Batch read: verifies and decrypts every entry, returning one status
    /// per unit (tamper/replay detection still fires per unit inside the
    /// batch).  Equivalent to read() per entry, in order.
    [[nodiscard]] std::vector<Verify_status> read_units(std::span<const Unit_read> batch);

    // ---- sharded-batch building blocks (runtime::Secure_session) ---------
    //
    // A batch write splits into a cheap serial phase that touches the
    // arena's bookkeeping (VN bump + cell claim, preserving write()
    // ordering) and an expensive crypto phase over disjoint cells that is
    // safe to fan out across workers.  Reads need no staging:
    // verify-and-decrypt is const once engines are supplied by the caller.

    /// Destination of one staged batch entry.  `src == nullptr` marks an
    /// entry superseded by a later write to the same address in the same
    /// batch (its VN bump already happened; only the final payload is
    /// encrypted, exactly as serial ordering would leave it).
    struct Write_slot {
        const Unit_write* src = nullptr;
        Page* page = nullptr;
        std::size_t unit = 0;  ///< index inside `page`
        u64 vn = 0;
    };

    /// Serial phase of a sharded batch write: validates every entry (a bad
    /// one throws before anything changes), bumps per-unit VNs and claims
    /// destination cells.  The slots live in this memory's staging buffer
    /// until the next stage_writes/write_units call; callers must run
    /// encrypt_slots over all of them before the memory is read again.
    [[nodiscard]] std::span<const Write_slot> stage_writes(std::span<const Unit_write> batch);

    /// Reusable scratch for the bulk crypto paths (encrypt_slots /
    /// read_units_with): B-AES's lane-key buffer plus the staging vectors
    /// the bulk AES and CMAC pipelines consume.  One instance belongs to
    /// exactly one thread at a time; runtime::Secure_session keeps one per
    /// shard and reuses it across batches, so the steady-state path
    /// allocates nothing.
    struct Bulk_scratch {
        /// crypt_with_base's key_scratch: lane keys of units wider than
        /// rounds+1 segments (narrower units XOR base ^ round key in place)
        std::vector<crypto::Block16> key_scratch;
        std::vector<crypto::Baes_engine::Otp_request> otp_reqs;  ///< base-OTP inputs
        std::vector<crypto::Block16> otps;     ///< batched base OTPs (otps_many)
        std::vector<crypto::Mac_request> reqs; ///< bulk-MAC inputs
        std::vector<u64> macs;                 ///< bulk-MAC outputs
        struct Located {
            u64 mac = 0;
            u64 stored_vn = 0;
        };
        std::vector<Located> located;          ///< read side: stored metadata
    };

    /// Crypto phase of a staged write over a contiguous run of its slots:
    /// every live slot's base OTP in one bulk AES call, B-AES into the
    /// slot's cell, then all their MACs through the CMAC engine's
    /// lock-step waves in one call.  `baes` and `mac` may be
    /// per-worker engines keyed with this memory's keys; live slots never
    /// share a cell, so disjoint runs of one staging may run concurrently.
    static void encrypt_slots(std::span<const Write_slot> slots,
                              const crypto::Baes_engine& baes,
                              const crypto::Cmac_engine& mac, Bulk_scratch& scratch);

    /// Bulk verify-and-decrypt against caller-supplied engines: validates
    /// and locates every entry up front (an unaligned, wrong-size or
    /// never-written entry throws before any output byte is written),
    /// computes all expected MACs and base OTPs in bulk, then compares and
    /// decrypts per unit into `out_status` (same size as `batch`).  Const,
    /// so disjoint-output calls may run concurrently (no concurrent writer
    /// allowed).
    void read_units_with(std::span<const Unit_read> batch,
                         const crypto::Baes_engine& baes,
                         const crypto::Cmac_engine& mac, Bulk_scratch& scratch,
                         std::span<Verify_status> out_status) const;

    /// XOR-fold of all stored unit MACs: the layer/model MAC the verifier
    /// compares after streaming a region (Fig. 3(b)).
    [[nodiscard]] u64 fold_all_macs() const;

    [[nodiscard]] const Config& config() const { return cfg_; }
    /// Units written at least once.
    [[nodiscard]] std::size_t unit_count() const { return unit_count_; }

    // ---- attacker interface (untrusted memory / bus adversary) ----------
    //
    // Views over the arena's untrusted cells (ciphertext, mac, stored_vn);
    // the on-chip VNs are out of reach.  Every call throws on a unit that
    // was never written.

    /// Flips bits inside a stored unit's ciphertext.
    void tamper(Addr addr, std::size_t byte_offset, u8 xor_mask);

    /// Swaps two stored units wholesale (ciphertext + metadata), the RePA
    /// move at memory level.
    void swap_units(Addr a, Addr b);

    /// Copies the current stored state of a unit (attacker snapshot).
    [[nodiscard]] Stored_unit snapshot(Addr addr) const;

    /// Restores a previously snapshotted unit (replay / rollback attack).
    /// Throws if `old` does not hold exactly one unit of ciphertext: a bus
    /// adversary cannot change a unit's size.
    void rollback(Addr addr, const Stored_unit& old);

    /// Flips bits of a stored unit's MAC word (integrity-metadata fault).
    void corrupt_mac(Addr addr, u64 xor_mask);

    // ---- bus-adversary tap (dram/dram_tap.h) ----------------------------

    /// Installs (nullptr clears) the adversary tap.  Safe while traffic
    /// runs: the pointer is atomic and pull_dram_tap() only fires on the
    /// thread that owns the memory for the current flush.
    void set_dram_tap(dram::Dram_tap* tap) { tap_.store(tap, std::memory_order_release); }

    /// Gives an installed tap its injection window.  Called by the bulk
    /// entry points (runtime::Secure_session) at the head of each flush,
    /// before any unit is staged or verified; near-free when no tap is
    /// installed.
    void pull_dram_tap()
    {
        if (dram::Dram_tap* tap = tap_.load(std::memory_order_acquire)) tap->pull();
    }

private:
    /// k_page_units consecutive units.  Zero-filled on creation; a unit
    /// whose on-chip VN is still 0 was never written.
    struct Page {
        explicit Page(Bytes unit_bytes) : ciphertext(k_page_units * unit_bytes) {}

        /// Unit `i`'s ciphertext cell in the slab.
        [[nodiscard]] std::span<u8> cipher(std::size_t i)
        {
            const std::size_t n = ciphertext.size() / k_page_units;
            return {ciphertext.data() + i * n, n};
        }
        [[nodiscard]] std::span<const u8> cipher(std::size_t i) const
        {
            return const_cast<Page*>(this)->cipher(i);
        }

        std::vector<u8> ciphertext;                 ///< the slab
        std::array<u64, k_page_units> mac{};
        std::array<u64, k_page_units> stored_vn{};  ///< consulted only when !onchip_vns
        std::array<u64, k_page_units> vn{};         ///< trusted on-chip VNs
    };

    /// The page-table probe of one call, reused while consecutive units
    /// stay in the same page.  Always local to a call, so concurrent const
    /// reads share no mutable state.
    struct Cursor {
        u64 page_no = ~u64{0};
        const Page* page = nullptr;
    };

    /// Page and in-page index of a written unit; throws (naming `op`) when
    /// `addr` is unaligned or was never written.
    [[nodiscard]] std::pair<const Page*, std::size_t> written_unit(Addr addr, Cursor& cursor,
                                                                   const char* op) const;
    [[nodiscard]] std::pair<Page*, std::size_t> written_unit(Addr addr, const char* op);

    Config cfg_;
    crypto::Baes_engine baes_;
    crypto::Cmac_engine mac_;  ///< unit MAC engine (AES-CMAC)
    // A hash map, not an ordered map: nothing observable depends on page
    // order (fold_all_macs is an order-free XOR), and nodes stay put across
    // rehash, which the Page pointers in Write_slot rely on.
    std::unordered_map<u64, Page> pages_;  ///< page number -> page
    std::size_t unit_count_ = 0;
    std::vector<Write_slot> staged_;       ///< stage_writes output buffer
    Bulk_scratch scratch_;                 ///< serial path's bulk scratch
    std::atomic<dram::Dram_tap*> tap_{nullptr};  ///< bus-adversary seam
};

}  // namespace seda::core
