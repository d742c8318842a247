// B-AES: SeDA's bandwidth-aware encryption mechanism (Fig. 3(a), Alg. 1).
//
// One AES engine produces the base OTP = AES-CTR_Ke(PA || VN) for a protected
// unit; per-16-byte-segment pads are then fanned out with XOR gates:
//
//     OTP_i = OTP ^ key_i        (key_i from the engine's keyExpansion)
//
// which defeats the Single-Element Collision Attack (SECA) that a shared OTP
// permits, at the hardware cost of XOR lanes instead of extra AES engines.
// When a unit has more segments than the schedule has round keys, the paper's
// extension applies: keyExpansion is re-run with input key ^ (PA || VN),
// yielding a further bank of pads, and so on.
//
// Single-unit and batch B-AES share one path.  A batch produces every unit's
// base OTP in one bulk AES call (otps_many) and then runs only the XOR lanes
// per unit (crypt_with_base).  A unit of up to rounds+1 segments (176 B at
// AES-128, so every 64 B protection unit) XORs base ^ round_key[i] straight
// into segment i: no pad vector is built.  Wider units gather their lane
// keys -- the primary round keys, then derived banks expanded into fixed
// storage through aeskeygenassist where available -- into caller-owned
// scratch, so Secure_memory's batch I/O amortizes that buffer across a whole
// tile.  crypt() is the same path for one unit; otps() materializes the
// pads themselves and is what tests hold the in-place path against.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/ctr.h"

namespace seda::crypto {

/// B-AES encrypt/decrypt engine for one key.  Thread-safe for concurrent
/// const use: the schedules are immutable after construction, and the batch
/// entry points mutate only their caller-owned scratch -- which is also the
/// sharing rule: a key_scratch vector belongs to exactly one thread.
/// Secure_session gives every worker its own engine anyway so backends and
/// derived-schedule caches never ping-pong cache lines.
class Baes_engine {
public:
    explicit Baes_engine(std::span<const u8> key,
                         Aes_backend_kind kind = Aes_backend_kind::auto_select);

    /// One unit of a batch base-OTP request (otps_many).
    struct Otp_request {
        Addr pa = 0;
        u64 vn = 0;
    };

    /// Distinct pads for segments 0..lanes-1 of the unit at (pa, vn).
    /// Lane 0..r use the primary schedule's round keys; further lanes come
    /// from derived schedules keyed with key ^ (PA || VN) (+ bank index).
    /// The reference for crypt_with_base: segment i is XORed with pad i.
    [[nodiscard]] std::vector<Block16> otps(Addr pa, u64 vn, std::size_t lanes) const;

    /// Batch base-OTP generation: bases[i] = AES-CTR_Ke(PA_i || VN_i) for
    /// every unit of a flush, streamed through the cipher's bulk interface
    /// (one backend dispatch, interleaved rounds) instead of one
    /// encrypt_block call per unit.  `bases.size()` must equal
    /// `reqs.size()`; bit-identical to ctr().otp() per request.
    void otps_many(std::span<const Otp_request> reqs, std::span<Block16> bases) const;

    /// Encrypts/decrypts `data` in place for a unit whose base OTP was
    /// already produced by otps_many: only the XOR lanes run here, with
    /// base ^ key_i applied to segment i.  Units wider than the primary
    /// bank gather their lane keys into `key_scratch` (reused across units;
    /// untouched otherwise).  `base` must be the OTP of (pa, vn).
    void crypt_with_base(std::span<u8> data, Addr pa, u64 vn, const Block16& base,
                         std::vector<Block16>& key_scratch) const;

    /// Encrypts/decrypts `data` in place, one B-AES lane per 16-byte segment.
    /// CTR-style XOR discipline, so the two operations coincide.
    void crypt(std::span<u8> data, Addr pa, u64 vn) const;

    /// Number of pads available without re-running keyExpansion
    /// (= round keys of the primary schedule).
    [[nodiscard]] std::size_t native_lanes() const { return ctr_.engine().round_keys().size(); }

    [[nodiscard]] const Aes_ctr& ctr() const { return ctr_; }

private:
    /// The key each of `lanes` segments XORs with the base OTP: primary
    /// round keys first, then derived banks for very wide units.
    void lane_keys(Addr pa, u64 vn, std::size_t lanes, std::vector<Block16>& keys) const;
    /// XORs base ^ keys[seg] onto the seg-th 16-byte segment of `data`.
    static void xor_lanes(std::span<u8> data, const Block16& base,
                          std::span<const Block16> keys);

    std::vector<u8> key_;
    Aes_ctr ctr_;
};

}  // namespace seda::crypto
