// Utility-layer tests: bit helpers, RNG determinism, stats, table formatting.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace seda {
namespace {

TEST(Bitutil, CeilDiv)
{
    EXPECT_EQ(ceil_div(0, 4), 0);
    EXPECT_EQ(ceil_div(1, 4), 1);
    EXPECT_EQ(ceil_div(4, 4), 1);
    EXPECT_EQ(ceil_div(5, 4), 2);
    EXPECT_EQ(ceil_div<u64>(1ULL << 40, 3), ((1ULL << 40) + 2) / 3);
}

TEST(Bitutil, Alignment)
{
    EXPECT_EQ(align_up<u64>(0, 64), 0u);
    EXPECT_EQ(align_up<u64>(1, 64), 64u);
    EXPECT_EQ(align_up<u64>(64, 64), 64u);
    EXPECT_EQ(align_down<u64>(63, 64), 0u);
    EXPECT_EQ(align_down<u64>(64, 64), 64u);
    EXPECT_EQ(align_down<u64>(130, 64), 128u);
}

TEST(Bitutil, PowersOfTwo)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(65));
    EXPECT_EQ(log2_floor(1), 0u);
    EXPECT_EQ(log2_floor(64), 6u);
    EXPECT_EQ(log2_floor(65), 6u);
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(65), 128u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        const u64 v = rng.next_below(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Rng, UnitIntervalBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_unit();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Stats, PercentilesNearestRank)
{
    EXPECT_DOUBLE_EQ(percentile_sorted({}, 50.0), 0.0);

    const double one[] = {7.0};
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 50.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(one, 100.0), 7.0);

    const double two[] = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile_sorted(two, 50.0), 1.0);  // ceil(0.5*2)=1st
    EXPECT_DOUBLE_EQ(percentile_sorted(two, 51.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(two, 100.0), 2.0);

    // 1..100: the nearest-rank pct-th percentile is exactly pct.
    std::vector<double> hundred(100);
    for (int i = 0; i < 100; ++i) hundred[static_cast<std::size_t>(i)] = i + 1.0;
    EXPECT_DOUBLE_EQ(percentile_sorted(hundred, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(hundred, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(hundred, 99.0), 99.0);

    // The unsorted form sorts a copy and agrees.
    const double shuffled[] = {9.0, 1.0, 5.0, 3.0, 7.0};
    EXPECT_DOUBLE_EQ(percentile_of(shuffled, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile_of(shuffled, 100.0), 9.0);
}

TEST(Bitutil, Fnv1a64KnownVectorsAndSensitivity)
{
    // FNV-1a reference values: empty input is the offset basis; "a" is a
    // published test vector.
    EXPECT_EQ(fnv1a64(nullptr, 0), 0xCBF29CE484222325ULL);
    const u8 a[] = {'a'};
    EXPECT_EQ(fnv1a64(a, 1), 0xAF63DC4C8601EC8CULL);

    const u8 x[] = {1, 2, 3, 4};
    const u8 y[] = {1, 2, 4, 3};  // same bytes, different order
    EXPECT_NE(fnv1a64(x, sizeof x), fnv1a64(y, sizeof y));
}

TEST(Table, AlignsAndCounts)
{
    Ascii_table t({"a", "long_header"});
    t.add_row({"x", "1"});
    t.add_row({"yy", "22"});
    EXPECT_EQ(t.row_count(), 2u);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("long_header"), std::string::npos);
    EXPECT_NE(os.str().find("yy"), std::string::npos);
}

TEST(Table, RejectsRaggedRows)
{
    Ascii_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), Seda_error);
}

TEST(Table, CsvOutput)
{
    Ascii_table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmt_f(1.2345, 2), "1.23");
    EXPECT_EQ(fmt_pct(0.1226), "12.26%");
    EXPECT_EQ(fmt_bytes(512), "512 B");
    EXPECT_EQ(fmt_bytes(2048), "2.00 KiB");
    EXPECT_EQ(fmt_bytes(3ULL * 1024 * 1024), "3.00 MiB");
}

TEST(Units, Literals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(24_MiB, 24ULL * 1024 * 1024);
    EXPECT_EQ(16_GiB, 16ULL * 1024 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(gb_per_s(20.0), 20e9);
}

TEST(Error, RequireThrowsWithMessage)
{
    EXPECT_NO_THROW(require(true, "ok"));
    try {
        require(false, "broken invariant");
        FAIL() << "should have thrown";
    } catch (const Seda_error& e) {
        EXPECT_NE(std::string(e.what()).find("broken invariant"), std::string::npos);
    }
}

}  // namespace
}  // namespace seda
