// Message-authentication layer: the 64-bit truncated block MACs the
// protection schemes store per protected unit, and the XOR-MAC aggregation
// that SeDA folds into layer MACs.
//
// Every unit MAC is AES-CMAC (RFC 4493 / NIST SP 800-38B) truncated to its
// first 64 bits, so integrity runs on the same AES engines as B-AES.  Two
// block-MAC flavours exist deliberately:
//   * naive_block_mac     - MAC over the ciphertext alone.  XOR-folding these
//                           is the Securator-style layer MAC that Algorithm 2
//                           shows is vulnerable to the Re-Permutation Attack
//                           (RePA): XOR is commutative, so shuffled blocks
//                           still verify.
//   * positional_block_mac- SeDA's defense: the MAC binds blk || PA || VN ||
//                           layer_id || fmap_idx || blk_idx, so any
//                           re-permutation changes the layer MAC.
//
// Tile transfers go through the bulk entry point (positional_macs).  On the
// aesni backend, a batch whose ciphertexts are all the same whole number of
// 16 B blocks -- every Secure_memory batch, since unit_bytes is a multiple
// of 16 -- runs the fused gear in crypto/aes_backend_aesni.cpp: the CBC
// chains of 16 units (VAES, 8 ymm registers) or 8 (SSE) stay in registers
// from the first ciphertext block to the tag, and the two position blocks
// are built in registers from the Mac_context.  CPUID picks the gear, as
// it does for the bulk cipher.  Everything else -- ragged batches, the
// scalar and ttable backends, mac() and the single-unit calls -- runs the
// portable wave: the CBC chains of up to 64 units advance in lock-step, one
// bulk AES call per block position.  tests/crypto/cmac_test.cpp holds the
// gear and the wave bit-identical on both gears, every backend and every
// AES key size.
#pragma once

#include <span>

#include "common/types.h"
#include "crypto/aes.h"

namespace seda::crypto {

struct Mac_context;
struct Mac_request;

/// AES-CMAC engine for one key: the AES key schedule and the two CMAC
/// subkeys K1/K2 are derived once at construction.  Secure_memory keeps one
/// engine per MAC key and reuses it for every unit of a tile transfer.
///
/// Thread-safety: const methods may run concurrently from any number of
/// threads (the engine holds only immutable key material; bulk calls keep
/// their fixed-size scratch on the caller's stack).
class Cmac_engine {
public:
    /// `key` must be 16, 24 or 32 bytes (AES-128/192/256; Seda_error
    /// otherwise).  `kind` selects the AES backend for every MAC this
    /// engine computes; auto_select resolves to the process-wide default
    /// (SEDA_AES_BACKEND, else aesni where available).
    explicit Cmac_engine(std::span<const u8> key,
                         Aes_backend_kind kind = Aes_backend_kind::auto_select);

    /// The full 128-bit AES-CMAC tag of `message` (RFC 4493 sec. 2.4).
    [[nodiscard]] Block16 mac(std::span<const u8> message) const;

    /// 64-bit truncated MAC over the ciphertext alone (RePA-vulnerable).
    [[nodiscard]] u64 naive_mac(std::span<const u8> ciphertext) const;

    /// 64-bit truncated positional MAC (Alg. 2 l.8) over the ciphertext
    /// followed by the 28 serialized position bytes.
    [[nodiscard]] u64 positional_mac(std::span<const u8> ciphertext,
                                     const Mac_context& ctx) const;

    /// Bulk truncated positional MACs: out[i] = positional_mac(
    /// reqs[i].ciphertext, reqs[i].ctx).  Equal whole-block ciphertexts on
    /// the aesni backend take the fused gear; anything else runs waves of
    /// up to 64 units whose CBC chains advance together, where ragged
    /// lengths are fine (shorter units drop out of the later block
    /// positions).  `out.size()` must equal `reqs.size()`.  This is the MAC
    /// half of Secure_memory's tile write/read path.
    void positional_macs(std::span<const Mac_request> reqs, std::span<u64> out) const;

private:
    Aes aes_;
    bool aesni_ = false;  ///< aes_ runs the aesni backend, so bulk calls may take the gear
    Block16 k1_{};        ///< subkey for a complete final block
    Block16 k2_{};        ///< subkey for a padded final block
};

/// The datapath MAC engine under its pre-CMAC name.  The repo benchmark
/// (perfbench/src/infer_workloads.cpp) times the unit MAC as
/// `Hmac_engine(key).positional_macs(...)` and is kept source-stable, so
/// this spelling stays.
using Hmac_engine = Cmac_engine;

/// Position/identity fields bound into a SeDA block MAC (Algorithm 2, def.).
struct Mac_context {
    Addr pa = 0;        ///< physical address of the unit
    u64 vn = 0;         ///< version number at write time
    u32 layer_id = 0;   ///< DNN layer producing/owning the data
    u32 fmap_idx = 0;   ///< feature-map index within the layer
    u32 blk_idx = 0;    ///< authentication-block index within the feature map
};

/// One entry of a bulk positional-MAC batch (Cmac_engine::positional_macs).
struct Mac_request {
    std::span<const u8> ciphertext;
    Mac_context ctx;
};

/// 64-bit MAC over the ciphertext only (RePA-vulnerable baseline).  This
/// and positional_block_mac build a Cmac_engine per call (a key expansion
/// plus the subkeys, ~2.4x the cost of the MAC itself on 64 B): one-shot
/// reference forms.  A loop over blocks builds one engine instead.
[[nodiscard]] u64 naive_block_mac(std::span<const u8> key, std::span<const u8> ciphertext);

/// 64-bit MAC binding the ciphertext to its position (SeDA / Alg. 2 defense).
[[nodiscard]] u64 positional_block_mac(std::span<const u8> key,
                                       std::span<const u8> ciphertext,
                                       const Mac_context& ctx);

/// XOR-MAC aggregator (Bellare, Guerin, Rogaway): parallelizable and
/// incremental.  SeDA XORs all optBlk MACs of a layer into one layer MAC.
class Xor_mac_accumulator {
public:
    void fold(u64 mac) { acc_ ^= mac; ++count_; }

    /// XOR is its own inverse, so a block can be *removed* from the
    /// aggregate; this is what makes the scheme incremental under updates.
    void unfold(u64 mac)
    {
        acc_ ^= mac;
        --count_;
    }

    [[nodiscard]] u64 value() const { return acc_; }
    [[nodiscard]] u64 count() const { return count_; }
    void reset()
    {
        acc_ = 0;
        count_ = 0;
    }

private:
    u64 acc_ = 0;
    u64 count_ = 0;
};

/// Convenience: XOR-fold a whole sequence of MACs.
[[nodiscard]] u64 xor_fold(std::span<const u64> macs);

}  // namespace seda::crypto
