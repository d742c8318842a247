// Layer descriptor geometry: shapes, GEMM lowering, byte accounting.
#include <gtest/gtest.h>

#include <ostream>

#include "accel/layer.h"
#include "common/error.h"

namespace seda::accel {
namespace {

TEST(Layer, ConvShapes)
{
    const auto l = Layer_desc::make_conv("c", 34, 34, 16, 3, 3, 32, 1);
    EXPECT_EQ(l.ofmap_h(), 32);
    EXPECT_EQ(l.ofmap_w(), 32);
    EXPECT_EQ(l.out_channels(), 32);
    EXPECT_EQ(l.gemm_m_dim(), 32u * 32u);
    EXPECT_EQ(l.gemm_k_dim(), 3u * 3u * 16u);
    EXPECT_EQ(l.gemm_n_dim(), 32u);
    EXPECT_EQ(l.macs(), 1024ull * 144 * 32);
    EXPECT_EQ(l.ifmap_bytes(), 34u * 34 * 16);
    EXPECT_EQ(l.weight_bytes(), 9u * 16 * 32);
    EXPECT_EQ(l.ofmap_bytes(), 32u * 32 * 32);
    EXPECT_EQ(l.ifmap_row_bytes(), 34u * 16);
    EXPECT_EQ(l.ofmap_row_bytes(), 32u * 32);
}

TEST(Layer, StridedConvShapes)
{
    const auto l = Layer_desc::make_conv("c", 227, 227, 3, 11, 11, 96, 4);
    EXPECT_EQ(l.ofmap_h(), 55);
    EXPECT_EQ(l.ofmap_w(), 55);
}

TEST(Layer, DepthwiseShapes)
{
    const auto l = Layer_desc::make_dwconv("d", 30, 30, 64, 3, 3, 1);
    EXPECT_EQ(l.ofmap_h(), 28);
    EXPECT_EQ(l.out_channels(), 64);
    EXPECT_EQ(l.gemm_k_dim(), 9u);   // per-channel window
    EXPECT_EQ(l.gemm_n_dim(), 64u);  // channels across columns
    EXPECT_EQ(l.weight_bytes(), 9u * 64);
    EXPECT_EQ(l.macs(), 28ull * 28 * 9 * 64);
}

TEST(Layer, FcIsRowVectorGemm)
{
    const auto l = Layer_desc::make_fc("fc", 4096, 1000);
    EXPECT_EQ(l.kind, Layer_kind::matmul);
    EXPECT_EQ(l.gemm_m_dim(), 1u);
    EXPECT_EQ(l.gemm_k_dim(), 4096u);
    EXPECT_EQ(l.gemm_n_dim(), 1000u);
    EXPECT_EQ(l.weight_bytes(), 4096u * 1000);
    EXPECT_EQ(l.ifmap_bytes(), 4096u);
    EXPECT_EQ(l.ofmap_bytes(), 1000u);
}

TEST(Layer, MatmulShapes)
{
    const auto l = Layer_desc::make_matmul("mm", 256, 512, 2048);
    EXPECT_EQ(l.ofmap_rows(), 256);
    EXPECT_EQ(l.ifmap_row_bytes(), 512u);
    EXPECT_EQ(l.ofmap_row_bytes(), 2048u);
    EXPECT_EQ(l.macs(), 256ull * 512 * 2048);
}

TEST(Layer, PoolHasNoWeightsOrMacs)
{
    const auto l = Layer_desc::make_pool("p", 28, 28, 64, 2, 2);
    EXPECT_EQ(l.ofmap_h(), 14);
    EXPECT_EQ(l.weight_bytes(), 0u);
    EXPECT_EQ(l.macs(), 0u);
    EXPECT_FALSE(l.is_compute());
    EXPECT_EQ(l.ofmap_bytes(), 14u * 14 * 64);
}

TEST(Layer, EmbeddingGeometry)
{
    const auto l = Layer_desc::make_embedding("e", 100000, 64, 128);
    EXPECT_EQ(l.weight_bytes(), 100000u * 64);
    EXPECT_EQ(l.ofmap_bytes(), 128u * 64);
    EXPECT_EQ(l.ifmap_bytes(), 128u * 4);  // 4-byte indices
    EXPECT_EQ(l.macs(), 0u);
    EXPECT_FALSE(l.is_compute());
}

struct Bad_layer_case {
    const char* name;
    Layer_desc desc;
};

// Prints the case name rather than the raw bytes (pointers included) gtest would
// print, so test names are stable across builds.
void PrintTo(const Bad_layer_case& c, std::ostream* os)
{
    *os << c.name;
}

Layer_desc raw_conv(int ih, int iw, int cin, int fh, int fw, int cout, int stride)
{
    Layer_desc l;
    l.name = "bad";
    l.kind = Layer_kind::conv;
    l.ifmap_h = ih;
    l.ifmap_w = iw;
    l.c_in = cin;
    l.filt_h = fh;
    l.filt_w = fw;
    l.c_out = cout;
    l.stride = stride;
    return l;
}

class LayerValidationTest : public ::testing::TestWithParam<Bad_layer_case> {};

TEST_P(LayerValidationTest, RejectsInvalidDescriptor)
{
    EXPECT_THROW(GetParam().desc.validate(), Seda_error);
}

INSTANTIATE_TEST_SUITE_P(
    BadLayers, LayerValidationTest,
    ::testing::Values(Bad_layer_case{"zero ifmap", raw_conv(0, 10, 3, 3, 3, 8, 1)},
                      Bad_layer_case{"zero channels", raw_conv(10, 10, 0, 3, 3, 8, 1)},
                      Bad_layer_case{"filter too big", raw_conv(4, 4, 3, 5, 5, 8, 1)},
                      Bad_layer_case{"zero stride", raw_conv(10, 10, 3, 3, 3, 8, 0)},
                      Bad_layer_case{"stride misfit", raw_conv(10, 10, 3, 3, 3, 8, 2)},
                      Bad_layer_case{"zero cout", raw_conv(10, 10, 3, 3, 3, 0, 1)}),
    [](const auto& pinfo) {
        std::string n = pinfo.param.name;
        for (auto& c : n)
            if (c == ' ') c = '_';
        return n;
    });

TEST(Layer, DepthwiseRequiresMatchingChannels)
{
    Layer_desc l = raw_conv(10, 10, 8, 3, 3, 16, 1);
    l.kind = Layer_kind::dwconv;
    EXPECT_THROW(l.validate(), Seda_error);
}

TEST(Layer, MatmulValidation)
{
    EXPECT_THROW(Layer_desc::make_matmul("m", 0, 4, 4), Seda_error);
    EXPECT_THROW(Layer_desc::make_matmul("m", 4, 0, 4), Seda_error);
    EXPECT_THROW(Layer_desc::make_matmul("m", 4, 4, 0), Seda_error);
}

TEST(Model, Totals)
{
    Model_desc m;
    m.name = "two-layer";
    m.layers = {Layer_desc::make_conv("c", 6, 6, 1, 3, 3, 4, 1),
                Layer_desc::make_fc("f", 64, 10)};
    EXPECT_EQ(m.total_weight_bytes(), 9u * 4 + 64u * 10);
    EXPECT_EQ(m.total_macs(), 16ull * 9 * 4 + 64ull * 10);
}

}  // namespace
}  // namespace seda::accel
