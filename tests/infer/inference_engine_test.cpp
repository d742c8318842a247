// Inference_engine + run_infer: the protected end-to-end path.  Clean
// replays verify everything; halo re-reads hit the same units twice and
// still verify; tampered / rolled-back units surface in exactly the right
// layer and tensor-kind counters; counters are identical at any worker
// count and across the session / serve replay paths.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/run_infer.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
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

const Model_binding& lenet_binding()
{
    static const Model_binding binding(models::lenet(), accel::Npu_config::server());
    return binding;
}

/// Expected per-layer op counts derived straight from the trace geometry.
struct Trace_counts {
    u64 reads = 0;
    u64 writes = 0;
};

Trace_counts trace_counts(const accel::Layer_sim& layer)
{
    Trace_counts c;
    for (const auto& r : layer.trace) (r.is_write ? c.writes : c.reads) += r.block_count();
    return c;
}

TEST(InferEngine, CleanLenetReplayVerifiesEverythingEndToEnd)
{
    const auto& binding = lenet_binding();
    runtime::Secure_session session(make_key(1), make_key(2),
                                    {Model_binding::k_unit_bytes, true}, 1);
    Session_sink sink(session);
    Inference_engine engine(binding);
    engine.load(sink);
    engine.infer(sink);
    engine.infer(sink);

    const Infer_stats& stats = engine.stats();
    EXPECT_EQ(stats.inferences, 2u);
    EXPECT_EQ(stats.load.writes,
              binding.weight_load_units().size() + binding.act_prefill_units().size());
    EXPECT_EQ(stats.load.failures(), 0u);

    const Unit_counters totals = stats.totals();
    EXPECT_EQ(totals.failures(), 0u);
    EXPECT_EQ(totals.data_mismatches, 0u);
    EXPECT_EQ(totals.ok, totals.reads + totals.writes);

    // Replay counts must match the trace geometry exactly (2 passes, plus
    // the per-inference input staging on layer 0's ifmap row).
    const auto& layers = binding.sim().layers;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Trace_counts expect = trace_counts(layers[i]);
        const Unit_counters got = stats.layers[i].total();
        EXPECT_EQ(got.reads, 2 * expect.reads) << "layer " << i;
        const u64 staged = i == 0 ? 2 * binding.input_units().size() : 0;
        EXPECT_EQ(got.writes, 2 * expect.writes + staged) << "layer " << i;
    }
}

TEST(InferEngine, HaloReReadsHitTheSameUnitsTwiceAndVerify)
{
    // A conv sized to force multiple row tiles on the edge NPU: consecutive
    // tiles share (filt_h - stride) ifmap rows, so the trace re-reads those
    // units -- total ifmap reads must exceed the unique ifmap working set.
    accel::Model_desc model;
    model.name = "halo-conv";
    model.layers.push_back(
        accel::Layer_desc::make_conv("conv", 128, 128, 16, 3, 3, 16, 1));
    const Model_binding binding(model, accel::Npu_config::edge());

    const auto& plan = binding.sim().layers[0].plan;
    ASSERT_GT(plan.m_tiles, 1) << "layer does not tile; the test needs halos";
    ASSERT_GT(plan.halo_rows, 0);

    runtime::Secure_session session(make_key(3), make_key(4),
                                    {Model_binding::k_unit_bytes, true}, 1);
    Session_sink sink(session);
    Inference_engine engine(binding);
    engine.load(sink);
    engine.infer(sink);

    const Unit_counters& ifmap = engine.stats().layers[0].ifmap;
    // input staging writes + trace reads; the duplicate re-reads are the
    // difference between total reads and the unique input set.
    EXPECT_GT(ifmap.reads, binding.input_units().size());
    EXPECT_EQ(engine.stats().totals().failures(), 0u);
    EXPECT_EQ(engine.stats().totals().data_mismatches, 0u);
}

TEST(InferEngine, TamperedWeightUnitSurfacesInItsLayerAndKind)
{
    const auto& binding = lenet_binding();
    runtime::Secure_session session(make_key(5), make_key(6),
                                    {Model_binding::k_unit_bytes, true}, 1);
    Session_sink sink(session);
    Inference_engine engine(binding);
    engine.load(sink);

    const Addr victim = binding.weight_load_units().front();
    const u32 layer = binding.context(victim).layer_id;
    session.memory().tamper(victim, 3, 0x40);

    engine.infer(sink);
    const Infer_stats& stats = engine.stats();
    EXPECT_GE(stats.layers[layer].weight.mac_mismatch, 1u);
    // Verification accounting, not a crash: every other unit still verifies
    // and the pass completes.
    EXPECT_EQ(stats.totals().failures(), stats.layers[layer].weight.mac_mismatch);
    for (std::size_t i = 0; i < stats.layers.size(); ++i) {
        EXPECT_EQ(stats.layers[i].ifmap.failures(), 0u) << i;
        EXPECT_EQ(stats.layers[i].ofmap.failures(), 0u) << i;
    }
}

TEST(InferEngine, RolledBackInputUnitIsCaughtAsReplay)
{
    const auto& binding = lenet_binding();
    runtime::Secure_session session(make_key(7), make_key(8),
                                    {Model_binding::k_unit_bytes, true}, 1);
    Session_sink sink(session);
    Inference_engine engine(binding);
    engine.load(sink);
    engine.infer(sink);

    // Snapshot an input unit after inference 1, let inference 2's staging
    // overwrite it (VN bump), then roll the stored unit back and replay
    // the read: the stale-but-self-consistent copy must trip the on-chip
    // VN check and land in the replay counter of the right tensor kind.
    const Addr victim = binding.input_units().front();
    const auto old = session.memory().snapshot(victim);
    engine.infer(sink);
    session.memory().rollback(victim, old);

    accel::Layer_sim probe;
    accel::Access_range read;
    read.begin = victim;
    read.length = Model_binding::k_unit_bytes;
    read.is_write = false;
    read.tensor = accel::Tensor_kind::ifmap;
    probe.trace = {read};

    Trace_player player(binding);
    Trace_player::Mirror mirror(binding);
    Layer_infer_stats stats;
    player.play_layer(probe, sink, mirror,
                      [](Addr, std::span<u8>) {}, stats);
    EXPECT_EQ(stats.ifmap.replay_detected, 1u);
    EXPECT_EQ(stats.ifmap.ok, 0u);
}

TEST(InferEngine, LifecycleMisuseThrows)
{
    const auto& binding = lenet_binding();
    runtime::Secure_session session(make_key(9), make_key(10),
                                    {Model_binding::k_unit_bytes, true}, 1);
    Session_sink sink(session);
    Inference_engine engine(binding);
    EXPECT_THROW(engine.infer(sink), Seda_error);  // infer before load
    engine.load(sink);
    EXPECT_THROW(engine.load(sink), Seda_error);  // load twice
}

TEST(InferRun, CountersAreIdenticalAtAnyWorkerCount)
{
    const auto model = models::lenet();
    const auto npu = accel::Npu_config::server();
    Infer_config cfg;
    cfg.tenants = 2;
    cfg.inferences = 2;
    cfg.path = Replay_path::session;
    cfg.jobs = 1;
    const auto r1 = run_infer(model, npu, cfg);
    cfg.jobs = 4;
    const auto r4 = run_infer(model, npu, cfg);

    EXPECT_EQ(r1.verification_failures, 0u);
    EXPECT_EQ(r1.data_mismatches, 0u);
    ASSERT_EQ(r1.per_tenant.size(), r4.per_tenant.size());
    for (std::size_t t = 0; t < r1.per_tenant.size(); ++t)
        EXPECT_EQ(r1.per_tenant[t], r4.per_tenant[t]) << "tenant " << t;
    EXPECT_EQ(r1.merged, r4.merged);
}

TEST(InferRun, ServePathMatchesSessionPathExactly)
{
    // The full-stack route (admission queue -> conflict-aware batching ->
    // per-tenant bulk crypto) must produce byte-for-byte the counters the
    // direct session route does.
    const auto model = models::lenet();
    const auto npu = accel::Npu_config::server();
    Infer_config cfg;
    cfg.tenants = 2;
    cfg.inferences = 2;
    cfg.jobs = 2;
    cfg.path = Replay_path::session;
    const auto direct = run_infer(model, npu, cfg);
    cfg.path = Replay_path::serve;
    const auto served = run_infer(model, npu, cfg);

    EXPECT_EQ(served.verification_failures, 0u);
    EXPECT_EQ(served.data_mismatches, 0u);
    EXPECT_EQ(direct.merged, served.merged);
    for (std::size_t t = 0; t < direct.per_tenant.size(); ++t)
        EXPECT_EQ(direct.per_tenant[t], served.per_tenant[t]) << "tenant " << t;
}

TEST(InferRun, TotalsMatchThePinnedReplay)
{
    // Merged totals of 2 tenants x 1 inference at the default seed on the
    // server NPU -- the totals `seda_cli infer --json` prints.  A change to
    // the replay, the payload stream or the mirror check that moves any of
    // them changes that output.
    const struct {
        const char* model;
        u64 reads, writes, ok, bytes, payload_fold;
    } cases[] = {
        {"lenet", 2'216, 292, 2'508, 160'512, 0x7a3795720e0bb61cULL},
        {"resnet18", 465'496, 88'854, 554'350, 35'478'400, 0x2c90444c1043f1d0ULL},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.model);
        Infer_config cfg;
        cfg.tenants = 2;
        cfg.inferences = 1;
        cfg.path = Replay_path::session;
        const auto r = run_infer(models::model_by_name(c.model), accel::Npu_config::server(),
                                 cfg);
        const Unit_counters t = r.merged.totals();
        EXPECT_EQ(t.reads, c.reads);
        EXPECT_EQ(t.writes, c.writes);
        EXPECT_EQ(t.ok, c.ok);
        EXPECT_EQ(t.bytes, c.bytes);
        EXPECT_EQ(t.payload_fold, c.payload_fold);
        EXPECT_EQ(r.verification_failures, 0u);
        EXPECT_EQ(r.data_mismatches, 0u);
    }
}

TEST(InferRun, TenantsHaveIndependentDeterministicStreams)
{
    EXPECT_NE(tenant_seed(1, 0), tenant_seed(1, 1));
    EXPECT_NE(tenant_seed(1, 0), tenant_seed(2, 0));

    const auto model = models::lenet();
    const auto npu = accel::Npu_config::server();
    Infer_config cfg;
    cfg.tenants = 2;
    cfg.inferences = 1;
    cfg.path = Replay_path::session;
    const auto r = run_infer(model, npu, cfg);
    // Same op counts per tenant, different payload folds (different seeds).
    EXPECT_EQ(r.per_tenant[0].totals().reads, r.per_tenant[1].totals().reads);
    EXPECT_NE(r.per_tenant[0].totals().payload_fold,
              r.per_tenant[1].totals().payload_fold);
}

}  // namespace
}  // namespace seda::infer
