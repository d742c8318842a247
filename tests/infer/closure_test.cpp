// The functional/analytic closure: the inference engine's protected replay
// and the traffic model's unit-MAC baseline count the same verification
// work over the same trace.  Per layer, Unit_mac_scheme's verify_events
// (64 B units, on-chip VNs) equal the engine's reads plus writes for one
// inference, less the input units the engine restages before layer 0 --
// the analytic half prices no input-staging phase, and its end-of-model
// row verifies nothing.  Moving the functional datapath to per-region unit
// sizes has to move both sides of this equality together.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/secure_npu.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
#include "protect/unit_scheme.h"
#include "runtime/secure_session.h"

namespace seda::infer {
namespace {

std::vector<u8> make_key(u64 seed)
{
    Rng rng(seed);
    std::vector<u8> key(16);
    for (auto& b : key) b = rng.next_byte();
    return key;
}

TEST(InferClosure, ReplayCountsEqualUnitMacVerifyEventsPerLayer)
{
    const struct {
        const char* model;
        u64 verify_events;
    } cases[] = {{"lenet", 1'238}, {"resnet18", 274'716}, {"transformer_fwd", 949'264}};
    for (const auto& c : cases) {
        SCOPED_TRACE(c.model);
        const Model_binding binding(models::model_by_name(c.model),
                                    accel::Npu_config::server());
        auto scheme = protect::make_mgx_scheme(Model_binding::k_unit_bytes);
        const core::Run_stats analytic = core::run_protected(binding.sim(), scheme);

        runtime::Secure_session session(make_key(1), make_key(2),
                                        {Model_binding::k_unit_bytes, true}, 1);
        Session_sink sink(session);
        Inference_engine engine(binding);
        engine.load(sink);
        engine.infer(sink);
        const Infer_stats& stats = engine.stats();
        EXPECT_EQ(stats.totals().failures(), 0u);

        ASSERT_EQ(analytic.layers.size(), stats.layers.size() + 1);
        for (std::size_t i = 0; i < stats.layers.size(); ++i) {
            const Unit_counters got = stats.layers[i].total();
            const u64 staged = i == 0 ? binding.input_units().size() : 0;
            EXPECT_EQ(analytic.layers[i].verify_events, got.reads + got.writes - staged)
                << "layer " << i << " (" << stats.layers[i].name << ")";
        }
        EXPECT_EQ(analytic.layers.back().layer_name, "(end-of-model)");
        EXPECT_EQ(analytic.layers.back().verify_events, 0u);
        EXPECT_EQ(analytic.verify_events, c.verify_events);
    }
}

}  // namespace
}  // namespace seda::infer
