#include "infer/inference_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "obs/stage.h"

namespace seda::infer {

Inference_engine::Inference_engine(const Model_binding& binding, Engine_config cfg)
    : binding_(binding), cfg_(cfg), player_(binding, cfg.max_batch_units), mirror_(binding)
{
    const auto& layers = binding_.sim().layers;
    stats_.layers.resize(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i)
        stats_.layers[i].name = layers[i].layer->name;
}

void Inference_engine::fill_payload(Addr addr, std::span<u8> out) const
{
    // Deterministic per (seed, epoch, unit): collision-free enough for the
    // mirror check, reproducible at any worker count or replay path.  Each
    // splitmix64 word lands least-significant byte first.
    static_assert(std::endian::native == std::endian::little,
                  "fill_payload stores splitmix64 words little-endian");
    u64 state = cfg_.seed ^ (epoch_ * 0x9E3779B97F4A7C15ULL) ^ addr;
    for (std::size_t i = 0; i < out.size(); i += sizeof(u64)) {
        const u64 word = splitmix64(state);
        std::memcpy(out.data() + i, &word, std::min(sizeof(u64), out.size() - i));
    }
}

void Inference_engine::load(Unit_sink& sink)
{
    require(!loaded_, "Inference_engine: load() may only be called once");
    obs::Stage_span span(obs::Stage::infer_load);
    const auto fresh = [this](Addr a, std::span<u8> out) { fill_payload(a, out); };
    player_.stage_units(binding_.weight_load_units(), sink, mirror_, fresh, stats_.load);
    player_.stage_units(binding_.act_prefill_units(), sink, mirror_, fresh, stats_.load);
    loaded_ = true;
}

void Inference_engine::infer(Unit_sink& sink)
{
    require(loaded_, "Inference_engine: infer() requires load()");
    const auto fresh = [this](Addr a, std::span<u8> out) { fill_payload(a, out); };

    // Fresh model input over layer 0's ifmap units -- the per-inference
    // write phase (and the VN bumps that make replay detection meaningful).
    ++epoch_;
    require(!stats_.layers.empty(), "Inference_engine: model has no layers");
    {
        obs::Stage_span span(obs::Stage::infer_input);
        player_.stage_units(binding_.input_units(), sink, mirror_, fresh,
                            stats_.layers.front().ifmap);
    }

    const auto& layers = binding_.sim().layers;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        ++epoch_;  // ofmap/spill payloads of this layer differ per pass
        player_.play_layer(layers[i], sink, mirror_, fresh, stats_.layers[i]);
    }
    ++stats_.inferences;
}

}  // namespace seda::infer
