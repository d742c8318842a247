#include "core/provision.h"

#include "common/bitutil.h"
#include "common/error.h"

namespace seda::core {

namespace {

constexpr Bytes k_unit = 64;  // weight authentication block

crypto::Mac_context weight_context(Addr pa, u64 vn, u32 layer_id, u32 blk_idx)
{
    crypto::Mac_context ctx;
    ctx.pa = pa;
    ctx.vn = vn;
    ctx.layer_id = layer_id;
    ctx.fmap_idx = 0;  // weights: single "feature map"
    ctx.blk_idx = blk_idx;
    return ctx;
}

}  // namespace

Bytes image_bytes(const accel::Model_desc& model)
{
    Bytes total = 0;
    for (const auto& l : model.layers) total += align_up(l.weight_bytes(), k_block_bytes);
    return total;
}

Model_image provision_model(const accel::Model_desc& model, std::span<const u8> weights,
                            std::span<const u8> enc_key, std::span<const u8> mac_key)
{
    require(weights.size() == image_bytes(model),
            "provision_model: weights must be the padded concatenation "
            "(use image_bytes() to size it)");

    const accel::Memory_map map(model);
    const crypto::Baes_engine baes(enc_key);
    const crypto::Hmac_engine hmac(mac_key);

    Model_image image;
    image.ciphertext.assign(weights.begin(), weights.end());
    crypto::Xor_mac_accumulator model_fold;

    Bytes cursor = 0;
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const Bytes padded = align_up(model.layers[i].weight_bytes(), k_block_bytes);
        Model_image::Layer_span span;
        span.base = map.weight_addr[i];
        span.bytes = padded;
        span.unit_bytes = k_unit;
        span.layer_id = static_cast<u32>(i);

        crypto::Xor_mac_accumulator layer_fold;
        for (Bytes off = 0; off < padded; off += k_unit) {
            const Bytes n = std::min(k_unit, padded - off);
            const Addr pa = span.base + off;
            std::span<u8> unit(image.ciphertext.data() + cursor + off, n);
            baes.crypt(unit, pa, image.provision_vn);
            const u64 mac = hmac.positional_mac(
                unit, weight_context(pa, image.provision_vn, span.layer_id,
                                     static_cast<u32>(off / k_unit)));
            layer_fold.fold(mac);
            model_fold.fold(mac);
        }
        image.layer_macs.push_back(layer_fold.value());
        image.layers.push_back(span);
        cursor += padded;
    }
    image.model_mac = model_fold.value();
    return image;
}

bool verify_image(const Model_image& image, std::span<const u8> mac_key)
{
    const crypto::Hmac_engine hmac(mac_key);
    crypto::Xor_mac_accumulator model_fold;
    Bytes cursor = 0;
    for (std::size_t i = 0; i < image.layers.size(); ++i) {
        const auto& span = image.layers[i];
        crypto::Xor_mac_accumulator layer_fold;
        for (Bytes off = 0; off < span.bytes; off += span.unit_bytes) {
            const Bytes n = std::min(span.unit_bytes, span.bytes - off);
            const std::span<const u8> unit(image.ciphertext.data() + cursor + off, n);
            const u64 mac = hmac.positional_mac(
                unit, weight_context(span.base + off, image.provision_vn, span.layer_id,
                                     static_cast<u32>(off / span.unit_bytes)));
            layer_fold.fold(mac);
            model_fold.fold(mac);
        }
        if (layer_fold.value() != image.layer_macs[i]) return false;
        cursor += span.bytes;
    }
    return model_fold.value() == image.model_mac;
}

std::vector<u8> decrypt_layer(const Model_image& image, u32 layer_id,
                              std::span<const u8> enc_key)
{
    const crypto::Baes_engine baes(enc_key);
    Bytes cursor = 0;
    for (const auto& span : image.layers) {
        if (span.layer_id != layer_id) {
            cursor += span.bytes;
            continue;
        }
        std::vector<u8> plain(image.ciphertext.begin() + static_cast<std::ptrdiff_t>(cursor),
                              image.ciphertext.begin() +
                                  static_cast<std::ptrdiff_t>(cursor + span.bytes));
        for (Bytes off = 0; off < span.bytes; off += span.unit_bytes) {
            const Bytes n = std::min(span.unit_bytes, span.bytes - off);
            baes.crypt(std::span<u8>(plain.data() + off, n), span.base + off,
                       image.provision_vn);
        }
        return plain;
    }
    throw Seda_error("decrypt_layer: unknown layer id");
}

}  // namespace seda::core
