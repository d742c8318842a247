// Message-authentication layer: HMAC-SHA256, the 64-bit truncated block MACs
// the protection schemes store per protected unit, and the XOR-MAC
// aggregation that SeDA folds into layer MACs.
//
// Two block-MAC flavours exist deliberately:
//   * naive_block_mac     - MAC over the ciphertext alone.  XOR-folding these
//                           is the Securator-style layer MAC that Algorithm 2
//                           shows is vulnerable to the Re-Permutation Attack
//                           (RePA): XOR is commutative, so shuffled blocks
//                           still verify.
//   * positional_block_mac- SeDA's defense: the MAC binds blk || PA || VN ||
//                           layer_id || fmap_idx || blk_idx, so any
//                           re-permutation changes the layer MAC.
//
// Tile transfers go through the bulk entry point (positional_macs): many
// independent unit MACs stream through the SHA-256 backend's multi-buffer
// compressor in lock-step waves, reusing the engine's precomputed ipad/opad
// mid-states.  Bit-identical to calling positional_mac() per unit --
// tests/crypto/sha256_backend_test.cpp holds that equivalence on
// equal-length and ragged batches.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "crypto/sha256.h"

namespace seda::crypto {

/// HMAC-SHA256 per RFC 2104 / FIPS 198-1.
[[nodiscard]] Digest256 hmac_sha256(std::span<const u8> key, std::span<const u8> message);

struct Mac_context;
struct Mac_request;
class Sha256_backend;

/// Precomputed-key HMAC-SHA256 engine: the ipad/opad blocks are absorbed
/// once at construction, saving two of the three-ish compression calls a
/// short-message HMAC costs.  This is the verifier-side analogue of the
/// batch crypto pipeline: Secure_memory keeps one engine per key and reuses
/// it for every unit of a tile transfer.
///
/// Thread-safety: const methods may run concurrently from any number of
/// threads (the engine holds only immutable mid-states and a stateless
/// backend; bulk calls keep their scratch on the caller's stack/heap).
class Hmac_engine {
public:
    /// `kind` selects the SHA-256 compression backend for every MAC this
    /// engine computes, single and bulk alike; auto_select resolves to the
    /// process-wide default (SEDA_SHA_BACKEND or fast).
    explicit Hmac_engine(std::span<const u8> key,
                         Sha256_backend_kind kind = Sha256_backend_kind::auto_select);

    /// Full HMAC-SHA256 digest of `message`.
    [[nodiscard]] Digest256 mac(std::span<const u8> message) const;

    /// 64-bit truncated MAC over the ciphertext alone (RePA-vulnerable).
    [[nodiscard]] u64 naive_mac(std::span<const u8> ciphertext) const;

    /// 64-bit truncated positional MAC (Alg. 2 l.8): the position fields are
    /// streamed into the hash after the ciphertext, so no message buffer is
    /// assembled at all.
    [[nodiscard]] u64 positional_mac(std::span<const u8> ciphertext,
                                     const Mac_context& ctx) const;

    /// Bulk truncated positional MACs: out[i] = positional_mac(
    /// reqs[i].ciphertext, reqs[i].ctx), with the independent messages
    /// advanced in lock-step waves through the backend's multi-buffer
    /// compressor.  Units of equal length (the fixed-size protection-unit
    /// case) batch perfectly; ragged lengths still batch for their common
    /// prefix of blocks.  `out.size()` must equal `reqs.size()`.  This is
    /// the MAC half of Secure_memory's tile write/read path.
    void positional_macs(std::span<const Mac_request> reqs, std::span<u64> out) const;

private:
    /// Forks a streaming hasher off one of the pad mid-states.
    [[nodiscard]] Sha256 fork(const Sha256_state& state) const;

    const Sha256_backend* backend_;  ///< compression impl for every path
    Sha256_backend_kind kind_;       ///< as resolved for this engine
    Sha256_state inner_state_{};     ///< mid-state after K0 ^ ipad
    Sha256_state outer_state_{};     ///< mid-state after K0 ^ opad
};

/// Position/identity fields bound into a SeDA block MAC (Algorithm 2, def.).
struct Mac_context {
    Addr pa = 0;        ///< physical address of the unit
    u64 vn = 0;         ///< version number at write time
    u32 layer_id = 0;   ///< DNN layer producing/owning the data
    u32 fmap_idx = 0;   ///< feature-map index within the layer
    u32 blk_idx = 0;    ///< authentication-block index within the feature map
};

/// One entry of a bulk positional-MAC batch (Hmac_engine::positional_macs).
struct Mac_request {
    std::span<const u8> ciphertext;
    Mac_context ctx;
};

/// 64-bit MAC over the ciphertext only (RePA-vulnerable baseline).
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
