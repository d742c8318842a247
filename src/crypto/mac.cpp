#include "crypto/mac.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/bitutil.h"
#include "common/error.h"
#include "crypto/sha256_backend.h"

namespace seda::crypto {
namespace {

constexpr std::size_t k_hmac_block = 64;  // SHA-256 block size in bytes

u64 truncate64(const Digest256& d) { return load_be64(d.data()); }

/// One logical HMAC message for the bulk path: `data` followed by a short
/// `suffix` (the positional fields), hashed as if concatenated.
struct Bulk_msg {
    std::span<const u8> data;
    std::span<const u8> suffix;
};

/// Per-message block plan for the inner hash.  The message splits into
/// `direct_blocks` full 64-byte blocks read straight out of `data` and a
/// copied tail (data remainder + suffix + Merkle-Damgard padding) staged in
/// a shared scratch buffer.
struct Bulk_plan {
    std::size_t direct_blocks = 0;
    std::size_t total_blocks = 0;  ///< inner blocks after the ipad block
    std::size_t tail_off = 0;      ///< offset into the shared tail scratch
};

/// Per-thread scratch reused across bulk calls.  The bulk pipeline runs
/// once per tile on the hot path, and with a hardware compressor the cost
/// of allocating fresh staging vectors per call rivals a compression wave;
/// thread_local reuse keeps Hmac_engine's concurrent-const-use contract.
struct Bulk_scratch {
    std::vector<Sha256_state> states;
    std::vector<Bulk_plan> plan;
    std::vector<u8> tail;
    std::vector<Sha256_job> jobs;
    std::vector<Sha256_state> outer_states;
    std::vector<u8> outer_blocks;
    // Staging for positional_macs (disjoint from hmac_many's use).
    std::vector<std::array<u8, 28>> fields;
    std::vector<Bulk_msg> msgs;
    std::vector<Digest256> digests;
};

Bulk_scratch& bulk_scratch()
{
    thread_local Bulk_scratch scratch;
    return scratch;
}

/// Bulk HMAC-SHA256 core: out[i] = HMAC(messages[i]) with the ipad/opad
/// compressions already folded into `inner0`/`outer0`.  All inner hashes
/// advance in lock-step waves (one block per message per wave) through the
/// backend's multi-buffer compressor, then every outer hash -- exactly one
/// block each -- runs as a single wave.  Equal-length messages keep every
/// wave full; ragged batches simply drop finished messages out of later
/// waves.  Bit-identical to the serial per-message path.
void hmac_many(const Sha256_backend& be, const Sha256_state& inner0,
               const Sha256_state& outer0, std::span<const Bulk_msg> msgs,
               std::span<Digest256> out)
{
    const std::size_t n = msgs.size();
    Bulk_scratch& sc = bulk_scratch();
    std::vector<Sha256_state>& states = sc.states;
    states.assign(n, inner0);
    std::vector<Bulk_plan>& plan = sc.plan;
    plan.assign(n, Bulk_plan{});

    std::size_t tail_total = 0;
    std::size_t max_blocks = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = msgs[i].data.size() + msgs[i].suffix.size();
        // Padding needs >= 9 bytes (0x80 + 64-bit length) after the message.
        plan[i].total_blocks = (len + 9 + k_hmac_block - 1) / k_hmac_block;
        plan[i].direct_blocks = msgs[i].data.size() / k_hmac_block;
        plan[i].tail_off = tail_total;
        tail_total += (plan[i].total_blocks - plan[i].direct_blocks) * k_hmac_block;
        max_blocks = std::max(max_blocks, plan[i].total_blocks);
    }

    // Stage every tail: data remainder, suffix, 0x80, zeros, bit length of
    // the whole inner stream (the 64-byte ipad block counts toward it).
    std::vector<u8>& tail = sc.tail;
    tail.assign(tail_total, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Bulk_msg& m = msgs[i];
        const std::size_t rem = m.data.size() - plan[i].direct_blocks * k_hmac_block;
        u8* t = tail.data() + plan[i].tail_off;
        if (rem != 0) std::memcpy(t, m.data.data() + plan[i].direct_blocks * k_hmac_block, rem);
        if (!m.suffix.empty()) std::memcpy(t + rem, m.suffix.data(), m.suffix.size());
        t[rem + m.suffix.size()] = 0x80;
        const std::size_t tail_bytes =
            (plan[i].total_blocks - plan[i].direct_blocks) * k_hmac_block;
        const u64 bit_len = (k_hmac_block + m.data.size() + m.suffix.size()) * 8;
        store_be64(t + tail_bytes - 8, bit_len);
    }

    // Inner waves: block b of every still-unfinished message, interleaved.
    std::vector<Sha256_job>& jobs = sc.jobs;
    jobs.reserve(n);
    for (std::size_t b = 0; b < max_blocks; ++b) {
        jobs.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (b >= plan[i].total_blocks) continue;
            const u8* block =
                b < plan[i].direct_blocks
                    ? msgs[i].data.data() + b * k_hmac_block
                    : tail.data() + plan[i].tail_off +
                          (b - plan[i].direct_blocks) * k_hmac_block;
            jobs.push_back({&states[i], block});
        }
        be.compress_many(jobs);
    }

    // Outer pass: each message's outer hash is exactly one padded block
    // (32-byte inner digest + padding), so the whole batch is one wave.
    std::vector<Sha256_state>& outer_states = sc.outer_states;
    outer_states.assign(n, outer0);
    std::vector<u8>& outer_blocks = sc.outer_blocks;
    outer_blocks.assign(n * k_hmac_block, 0);
    jobs.clear();
    for (std::size_t i = 0; i < n; ++i) {
        u8* ob = outer_blocks.data() + i * k_hmac_block;
        for (int w = 0; w < 8; ++w)
            store_be32(ob + 4 * w, states[i][static_cast<std::size_t>(w)]);
        ob[32] = 0x80;
        store_be64(ob + 56, (k_hmac_block + 32) * 8);
        jobs.push_back({&outer_states[i], ob});
    }
    be.compress_many(jobs);

    for (std::size_t i = 0; i < n; ++i)
        for (int w = 0; w < 8; ++w)
            store_be32(out[i].data() + 4 * w, outer_states[i][static_cast<std::size_t>(w)]);
}

/// Serializes the positional fields exactly as positional_mac streams them.
std::array<u8, 28> mac_fields(const Mac_context& ctx)
{
    std::array<u8, 28> fields{};
    store_be64(fields.data(), ctx.pa);
    store_be64(fields.data() + 8, ctx.vn);
    store_be32(fields.data() + 16, ctx.layer_id);
    store_be32(fields.data() + 20, ctx.fmap_idx);
    store_be32(fields.data() + 24, ctx.blk_idx);
    return fields;
}

}  // namespace

Hmac_engine::Hmac_engine(std::span<const u8> key, Sha256_backend_kind kind)
    : backend_(&sha256_backend_for(kind)),
      kind_(kind == Sha256_backend_kind::auto_select ? default_sha256_backend_kind()
                                                     : kind)
{
    std::array<u8, k_hmac_block> k0{};
    if (key.size() > k_hmac_block) {
        Sha256 kh(kind);
        kh.update(key);
        const Digest256 kd = kh.finish();
        std::copy(kd.begin(), kd.end(), k0.begin());
    } else {
        std::copy(key.begin(), key.end(), k0.begin());
    }

    std::array<u8, k_hmac_block> ipad{};
    std::array<u8, k_hmac_block> opad{};
    for (std::size_t i = 0; i < k_hmac_block; ++i) {
        ipad[i] = static_cast<u8>(k0[i] ^ 0x36);
        opad[i] = static_cast<u8>(k0[i] ^ 0x5c);
    }
    // Absorb each pad block exactly once into the raw mid-states -- the
    // single stored form.  Streaming single-MAC hashers fork() off these,
    // and the bulk path copies them per message, so neither re-hashes the
    // key material.
    inner_state_ = sha256_initial_state();
    backend_->compress(inner_state_, ipad.data(), 1);
    outer_state_ = sha256_initial_state();
    backend_->compress(outer_state_, opad.data(), 1);
}

Sha256 Hmac_engine::fork(const Sha256_state& state) const
{
    Sha256 h(kind_);
    h.resume(state, k_hmac_block);
    return h;
}

Digest256 Hmac_engine::mac(std::span<const u8> message) const
{
    Sha256 inner = fork(inner_state_);
    inner.update(message);
    const Digest256 inner_digest = inner.finish();

    Sha256 outer = fork(outer_state_);
    outer.update(inner_digest);
    return outer.finish();
}

u64 Hmac_engine::naive_mac(std::span<const u8> ciphertext) const
{
    return truncate64(mac(ciphertext));
}

u64 Hmac_engine::positional_mac(std::span<const u8> ciphertext, const Mac_context& ctx) const
{
    // HASH_Kh(blk || PA || VN || layer_id || fmap_idx || blk_idx), Alg. 2 l.8.
    // The fields stream into the hash after the ciphertext -- identical
    // digest to concatenating them into one buffer, without the buffer.
    const std::array<u8, 28> fields = mac_fields(ctx);

    Sha256 inner = fork(inner_state_);
    inner.update(ciphertext);
    inner.update(fields);
    const Digest256 inner_digest = inner.finish();

    Sha256 outer = fork(outer_state_);
    outer.update(inner_digest);
    return truncate64(outer.finish());
}

void Hmac_engine::positional_macs(std::span<const Mac_request> reqs,
                                  std::span<u64> out) const
{
    require(reqs.size() == out.size(), "Hmac_engine::positional_macs: size mismatch");
    Bulk_scratch& sc = bulk_scratch();
    std::vector<std::array<u8, 28>>& fields = sc.fields;
    fields.resize(reqs.size());
    std::vector<Bulk_msg>& msgs = sc.msgs;
    msgs.resize(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        fields[i] = mac_fields(reqs[i].ctx);
        msgs[i] = {reqs[i].ciphertext, fields[i]};
    }
    std::vector<Digest256>& digests = sc.digests;
    digests.resize(reqs.size());
    hmac_many(*backend_, inner_state_, outer_state_, msgs, digests);
    for (std::size_t i = 0; i < reqs.size(); ++i) out[i] = truncate64(digests[i]);
}

Digest256 hmac_sha256(std::span<const u8> key, std::span<const u8> message)
{
    return Hmac_engine(key).mac(message);
}

u64 naive_block_mac(std::span<const u8> key, std::span<const u8> ciphertext)
{
    return Hmac_engine(key).naive_mac(ciphertext);
}

u64 positional_block_mac(std::span<const u8> key, std::span<const u8> ciphertext,
                         const Mac_context& ctx)
{
    return Hmac_engine(key).positional_mac(ciphertext, ctx);
}

u64 xor_fold(std::span<const u64> macs)
{
    u64 acc = 0;
    for (u64 m : macs) acc ^= m;
    return acc;
}

}  // namespace seda::crypto
