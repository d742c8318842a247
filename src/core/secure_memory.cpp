#include "core/secure_memory.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "obs/stage.h"

namespace seda::core {

namespace {

crypto::Mac_context context_for(Addr addr, u64 vn, u32 layer_id, u32 fmap_idx, u32 blk_idx)
{
    crypto::Mac_context ctx;
    ctx.pa = addr;
    ctx.vn = vn;
    ctx.layer_id = layer_id;
    ctx.fmap_idx = fmap_idx;
    ctx.blk_idx = blk_idx;
    return ctx;
}

}  // namespace

Secure_memory::Secure_memory(std::span<const u8> enc_key, std::span<const u8> mac_key,
                             Config cfg)
    : cfg_(cfg), baes_(enc_key), mac_(mac_key)
{
    require(cfg_.unit_bytes >= k_aes_block_bytes && cfg_.unit_bytes % k_aes_block_bytes == 0,
            "Secure_memory: unit must be a multiple of 16 bytes");
}

std::pair<const Secure_memory::Page*, std::size_t> Secure_memory::written_unit(
    Addr addr, Cursor& cursor, const char* op) const
{
    if (addr % cfg_.unit_bytes != 0)
        throw Seda_error(std::string(op) + ": unaligned address");
    const u64 unit_no = addr / cfg_.unit_bytes;
    const u64 page_no = unit_no / k_page_units;
    if (page_no != cursor.page_no) {
        const auto it = pages_.find(page_no);
        cursor = {page_no, it == pages_.end() ? nullptr : &it->second};
    }
    const std::size_t unit = unit_no % k_page_units;
    if (cursor.page == nullptr || cursor.page->vn[unit] == 0)
        throw Seda_error(std::string(op) + ": unit never written");
    return {cursor.page, unit};
}

std::pair<Secure_memory::Page*, std::size_t> Secure_memory::written_unit(Addr addr,
                                                                         const char* op)
{
    Cursor cursor;
    const auto [page, unit] = std::as_const(*this).written_unit(addr, cursor, op);
    return {const_cast<Page*>(page), unit};
}

std::span<const Secure_memory::Write_slot> Secure_memory::stage_writes(
    std::span<const Unit_write> batch)
{
    obs::Stage_span span(obs::Stage::stage_writes);
    // Validate everything up front: a bad entry must throw before any VN is
    // bumped or cell claimed, so a rejected batch leaves nothing behind.
    for (const Unit_write& w : batch) {
        require(w.addr % cfg_.unit_bytes == 0, "Secure_memory::write: unaligned address");
        require(w.plaintext.size() == cfg_.unit_bytes,
                "Secure_memory::write: plaintext must be one unit");
    }

    staged_.resize(batch.size());
    u64 page_no = ~u64{0};
    Page* page = nullptr;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const u64 unit_no = batch[i].addr / cfg_.unit_bytes;
        if (unit_no / k_page_units != page_no) {
            page_no = unit_no / k_page_units;
            page = &pages_.try_emplace(page_no, cfg_.unit_bytes).first->second;
        }
        const std::size_t unit = unit_no % k_page_units;
        const u64 vn = ++page->vn[unit];  // increment on every write (Eq. 1)
        if (vn == 1) ++unit_count_;
        page->stored_vn[unit] = vn;  // only consulted when VNs are kept off-chip
        staged_[i] = {&batch[i], page, unit, vn};
    }
    // A repeated address inside the batch supersedes its earlier entries:
    // serial ordering leaves only the last payload, under the unit's final
    // VN, in storage -- so every slot holding an older VN is dropped.
    for (Write_slot& slot : staged_)
        if (slot.vn != slot.page->vn[slot.unit]) slot.src = nullptr;
    return staged_;
}

void Secure_memory::encrypt_slots(std::span<const Write_slot> slots,
                                  const crypto::Baes_engine& baes,
                                  const crypto::Cmac_engine& mac, Bulk_scratch& scratch)
{
    // Lap boundaries reuse one clock read, so phase attribution adds no
    // extra reads over a single whole-call span.
    obs::Phase_timer phases;
    // Phase 0: every live slot's base OTP in one bulk AES call (the whole
    // run streams through the cipher's interleaved backend at once).
    auto& otp_reqs = scratch.otp_reqs;
    otp_reqs.clear();
    for (const Write_slot& slot : slots)
        if (slot.src != nullptr) otp_reqs.push_back({slot.src->addr, slot.vn});
    scratch.otps.resize(otp_reqs.size());
    baes.otps_many(otp_reqs, scratch.otps);

    // Phase 1: B-AES every live slot into its cell (base ^ round key XORed
    // in place -- the AES work happened in phase 0), gathering the MAC
    // inputs.
    auto& reqs = scratch.reqs;
    reqs.clear();
    for (const Write_slot& slot : slots) {
        if (slot.src == nullptr) continue;  // superseded in-batch
        const Unit_write& w = *slot.src;
        const std::span<u8> cipher = slot.page->cipher(slot.unit);
        const crypto::Block16& base = scratch.otps[reqs.size()];  // this slot's OTP
        std::copy(w.plaintext.begin(), w.plaintext.end(), cipher.begin());
        baes.crypt_with_base(cipher, w.addr, slot.vn, base, scratch.key_scratch);
        reqs.push_back(
            {cipher, context_for(w.addr, slot.vn, w.layer_id, w.fmap_idx, w.blk_idx)});
    }
    phases.lap(obs::Stage::baes);

    // Phase 2: one bulk-CMAC call MACs the whole run.
    scratch.macs.resize(reqs.size());
    mac.positional_macs(reqs, scratch.macs);
    std::size_t live = 0;
    for (const Write_slot& slot : slots)
        if (slot.src != nullptr) slot.page->mac[slot.unit] = scratch.macs[live++];
    phases.lap(obs::Stage::bulk_mac);
}

void Secure_memory::read_units_with(std::span<const Unit_read> batch,
                                    const crypto::Baes_engine& baes,
                                    const crypto::Cmac_engine& mac, Bulk_scratch& scratch,
                                    std::span<Verify_status> out_status) const
{
    require(batch.size() == out_status.size(),
            "Secure_memory::read_units: status span must match batch");
    obs::Phase_timer phases;

    // Phase 1: validate and locate every entry before any output is
    // touched, gathering the expected-MAC and base-OTP inputs (mirrors
    // stage_writes's all-or-nothing validation on the write side).
    auto& located = scratch.located;
    auto& reqs = scratch.reqs;
    auto& otp_reqs = scratch.otp_reqs;
    located.resize(batch.size());
    reqs.resize(batch.size());
    otp_reqs.resize(batch.size());
    Cursor cursor;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Unit_read& r = batch[i];
        require(r.out.size() == cfg_.unit_bytes, "Secure_memory::read: out must be one unit");
        const auto [page, unit] = written_unit(r.addr, cursor, "Secure_memory::read");
        // Freshness source: the trusted on-chip VN, or (vulnerably) whatever
        // the untrusted memory claims.
        const u64 vn = cfg_.onchip_vns ? page->vn[unit] : page->stored_vn[unit];
        located[i] = {page->mac[unit], page->stored_vn[unit]};
        otp_reqs[i] = {r.addr, vn};
        reqs[i] = {page->cipher(unit),
                   context_for(r.addr, vn, r.layer_id, r.fmap_idx, r.blk_idx)};
    }
    phases.lap(obs::Stage::locate);

    // Phase 2: every expected MAC through the bulk CMAC waves at once.
    auto& expected = scratch.macs;
    expected.resize(batch.size());
    mac.positional_macs(reqs, expected);
    phases.lap(obs::Stage::bulk_mac);

    // Phase 3: every base OTP in one bulk AES call, then compare and
    // decrypt per unit -- detection still fires per unit inside the batch.
    scratch.otps.resize(batch.size());
    baes.otps_many(otp_reqs, scratch.otps);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Unit_read& r = batch[i];
        const u64 vn = otp_reqs[i].vn;
        if (expected[i] != located[i].mac) {
            // With on-chip VNs a stale-but-self-consistent unit fails exactly
            // here: its MAC was minted under an older VN.
            out_status[i] = cfg_.onchip_vns && located[i].stored_vn != vn
                                ? Verify_status::replay_detected
                                : Verify_status::mac_mismatch;
            continue;
        }
        std::copy(reqs[i].ciphertext.begin(), reqs[i].ciphertext.end(), r.out.begin());
        baes.crypt_with_base(r.out, r.addr, vn, scratch.otps[i], scratch.key_scratch);
        out_status[i] = Verify_status::ok;
    }
    phases.lap(obs::Stage::verify);
}

void Secure_memory::write(Addr addr, std::span<const u8> plaintext, u32 layer_id,
                          u32 fmap_idx, u32 blk_idx)
{
    const Unit_write w{addr, plaintext, layer_id, fmap_idx, blk_idx};
    write_units({&w, 1});
}

Verify_status Secure_memory::read(Addr addr, std::span<u8> out, u32 layer_id,
                                  u32 fmap_idx, u32 blk_idx)
{
    const Unit_read r{addr, out, layer_id, fmap_idx, blk_idx};
    Verify_status status{};
    read_units_with({&r, 1}, baes_, mac_, scratch_, {&status, 1});
    return status;
}

void Secure_memory::write_units(std::span<const Unit_write> batch)
{
    encrypt_slots(stage_writes(batch), baes_, mac_, scratch_);
}

std::vector<Verify_status> Secure_memory::read_units(std::span<const Unit_read> batch)
{
    std::vector<Verify_status> statuses(batch.size());
    read_units_with(batch, baes_, mac_, scratch_, statuses);
    return statuses;
}

u64 Secure_memory::fold_all_macs() const
{
    // Never-written cells hold MAC 0, the fold's identity.
    crypto::Xor_mac_accumulator acc;
    for (const auto& [page_no, page] : pages_) {
        (void)page_no;
        for (const u64 mac : page.mac) acc.fold(mac);
    }
    return acc.value();
}

void Secure_memory::tamper(Addr addr, std::size_t byte_offset, u8 xor_mask)
{
    const auto [page, unit] = written_unit(addr, "Secure_memory::tamper");
    require(byte_offset < cfg_.unit_bytes, "Secure_memory::tamper: offset outside unit");
    u8& byte = page->cipher(unit)[byte_offset];
    byte = static_cast<u8>(byte ^ xor_mask);
}

void Secure_memory::swap_units(Addr a, Addr b)
{
    const auto [pa, ua] = written_unit(a, "Secure_memory::swap_units");
    const auto [pb, ub] = written_unit(b, "Secure_memory::swap_units");
    if (pa == pb && ua == ub) return;
    const std::span<u8> ca = pa->cipher(ua);
    std::swap_ranges(ca.begin(), ca.end(), pb->cipher(ub).begin());
    std::swap(pa->mac[ua], pb->mac[ub]);
    std::swap(pa->stored_vn[ua], pb->stored_vn[ub]);
}

Secure_memory::Stored_unit Secure_memory::snapshot(Addr addr) const
{
    Cursor cursor;
    const auto [page, unit] = written_unit(addr, cursor, "Secure_memory::snapshot");
    const std::span<const u8> cipher = page->cipher(unit);
    return {{cipher.begin(), cipher.end()}, page->mac[unit], page->stored_vn[unit]};
}

void Secure_memory::rollback(Addr addr, const Stored_unit& old)
{
    const auto [page, unit] = written_unit(addr, "Secure_memory::rollback");
    require(old.ciphertext.size() == cfg_.unit_bytes,
            "Secure_memory::rollback: ciphertext must be one unit");
    std::copy(old.ciphertext.begin(), old.ciphertext.end(), page->cipher(unit).begin());
    page->mac[unit] = old.mac;
    page->stored_vn[unit] = old.stored_vn;
}

void Secure_memory::corrupt_mac(Addr addr, u64 xor_mask)
{
    require(xor_mask != 0, "Secure_memory::corrupt_mac: mask must flip at least one bit");
    const auto [page, unit] = written_unit(addr, "Secure_memory::corrupt_mac");
    page->mac[unit] ^= xor_mask;
}

}  // namespace seda::core
