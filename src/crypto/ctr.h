// AES-CTR mode with the counter layout the paper uses: PA || VN (Eq. 1/2).
//
// Three encryption disciplines are provided because the paper's security
// argument (Algorithm 1) contrasts them:
//   * crypt_standard   - textbook CTR: the counter increments for every
//                        16-byte segment of the protected unit.  Secure but
//                        needs one AES invocation per segment (what T-AES
//                        parallelizes with N engines).
//   * crypt_shared_otp - a single OTP reused for every segment of the unit.
//                        Bandwidth-cheap but vulnerable to the SECA attack.
//   * B-AES            - see crypto/baes.h: one AES invocation per unit,
//                        per-segment pads derived from round keys.
//
// In all three, decryption is the same XOR as encryption, so only the
// forward cipher runs.  The secure-memory datapath takes the B-AES route;
// the other two are the references Algorithm 1 contrasts it with.
#pragma once

#include <span>

#include "common/types.h"
#include "crypto/aes.h"

namespace seda::crypto {

/// Builds the 128-bit counter block PA || VN (both big-endian 64-bit).
[[nodiscard]] Block16 make_counter(Addr pa, u64 vn);

/// Adds `inc` to the low 64 bits (the VN half) of a counter block.
[[nodiscard]] Block16 counter_add(const Block16& ctr, u64 inc);

/// CTR-mode front end over one Aes instance.  Thread-safe for concurrent
/// const use (the key schedule is immutable after construction and the
/// backends are stateless); all crypt_* methods are const and keep their
/// keystream scratch on the stack.
class Aes_ctr {
public:
    explicit Aes_ctr(std::span<const u8> key,
                     Aes_backend_kind kind = Aes_backend_kind::auto_select)
        : aes_(key, kind)
    {
    }

    /// The one-time pad for the data block at (pa, vn): AES-CTR_Ke(PA || VN).
    [[nodiscard]] Block16 otp(Addr pa, u64 vn) const
    {
        return aes_.encrypt_block(make_counter(pa, vn));
    }

    /// Textbook CTR over `data` (any length); segment i uses counter+i.
    /// Encryption and decryption are the same operation (Eq. 1 / Eq. 2).
    /// One AES invocation per 16 B segment.
    void crypt_standard(std::span<u8> data, Addr pa, u64 vn) const;

    /// Insecure variant: every 16-byte segment XORed with the *same* OTP.
    /// Kept as the SECA attack target; never used by the SeDA scheme.
    void crypt_shared_otp(std::span<u8> data, Addr pa, u64 vn) const;

    [[nodiscard]] const Aes& engine() const { return aes_; }

private:
    Aes aes_;
};

}  // namespace seda::crypto
