#include "model/profiler.h"

#include <cmath>

#include <gtest/gtest.h>

namespace mugi {
namespace model {
namespace {

TEST(Histogram, BinningAndBounds)
{
    Histogram h(-4.0, 4.0, 8);
    h.add(-3.9);  // bin 0
    h.add(0.1);   // bin 4
    h.add(3.9);   // bin 7
    h.add(-5.0);  // underflow
    h.add(4.0);   // overflow (hi is exclusive)
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bins()[0], 1u);
    EXPECT_EQ(h.bins()[4], 1u);
    EXPECT_EQ(h.bins()[7], 1u);
}

TEST(Histogram, FractionIn)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) {
        h.add(static_cast<double>(i) + 0.5);
    }
    EXPECT_NEAR(h.fraction_in(0.0, 4.99), 0.5, 1e-9);
    EXPECT_NEAR(h.fraction_in(0.0, 10.0), 1.0, 1e-9);
}

TEST(Profiler, ExponentClusteringDetected)
{
    // Values spread over [0.75, 1.5) -> exponents in {-1, 0} only:
    // the "clustered exponents despite spread values" insight of
    // Sec. 3.3.
    NonlinearProfiler profiler;
    const CaptureFn capture = profiler.capture();
    std::vector<float> values;
    for (float v = 0.75f; v < 1.5f; v += 0.01f) {
        values.push_back(v);
    }
    capture(nonlinear::NonlinearOp::kSilu, 0, values);
    const SiteProfile& site =
        profiler.site(nonlinear::NonlinearOp::kSilu, 0);
    EXPECT_NEAR(site.exponent_coverage(-1, 0), 1.0, 1e-9);
    const auto window = site.dominant_exponent_window(8);
    EXPECT_LE(window.first, -1);
    EXPECT_GE(window.second, 0);
}

TEST(Profiler, ZeroTracking)
{
    NonlinearProfiler profiler;
    const CaptureFn capture = profiler.capture();
    const std::vector<float> values = {0.0f, 0.0f, 1.0f};
    capture(nonlinear::NonlinearOp::kExp, 2, values);
    const SiteProfile& site =
        profiler.site(nonlinear::NonlinearOp::kExp, 2);
    EXPECT_EQ(site.zero_count, 2u);
    EXPECT_EQ(site.exponents.total(), 1u);
}

TEST(Profiler, MergedAcrossLayers)
{
    NonlinearProfiler profiler;
    const CaptureFn capture = profiler.capture();
    const std::vector<float> a = {0.5f, 0.5f};
    const std::vector<float> b = {2.0f};
    capture(nonlinear::NonlinearOp::kGelu, 0, a);
    capture(nonlinear::NonlinearOp::kGelu, 3, b);
    const SiteProfile merged =
        profiler.merged(nonlinear::NonlinearOp::kGelu);
    EXPECT_EQ(merged.exponents.total(), 3u);
    EXPECT_NEAR(merged.exponent_coverage(-1, -1), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(merged.exponent_coverage(1, 1), 1.0 / 3.0, 1e-9);

    // Samples outside a histogram's range still count in the merge:
    // -40 and 50 lie outside the value range [-32, 32), so half the
    // merged values are in range, as at each site.
    NonlinearProfiler wide;
    const CaptureFn capture_wide = wide.capture();
    const std::vector<float> low = {-40.0f, 1.0f};
    const std::vector<float> high = {50.0f, 2.0f};
    capture_wide(nonlinear::NonlinearOp::kGelu, 0, low);
    capture_wide(nonlinear::NonlinearOp::kGelu, 1, high);
    const SiteProfile merged_wide =
        wide.merged(nonlinear::NonlinearOp::kGelu);
    EXPECT_EQ(merged_wide.values.total(), 4u);
    EXPECT_EQ(merged_wide.values.underflow(), 1u);
    EXPECT_EQ(merged_wide.values.overflow(), 1u);
    EXPECT_NEAR(merged_wide.values.fraction_in(-32.0, 32.0), 0.5,
                1e-9);
}

TEST(Profiler, MissingSiteThrows)
{
    NonlinearProfiler profiler;
    EXPECT_FALSE(profiler.has_site(nonlinear::NonlinearOp::kExp, 0));
    EXPECT_THROW(profiler.site(nonlinear::NonlinearOp::kExp, 0),
                 std::out_of_range);
}

TEST(Profiler, NonFiniteInputsIgnored)
{
    NonlinearProfiler profiler;
    const CaptureFn capture = profiler.capture();
    const std::vector<float> values = {-INFINITY, 1.0f,
                                       std::nanf("")};
    capture(nonlinear::NonlinearOp::kExp, 0, values);
    const SiteProfile& site =
        profiler.site(nonlinear::NonlinearOp::kExp, 0);
    EXPECT_EQ(site.values.total(), 1u);
}

}  // namespace
}  // namespace model
}  // namespace mugi
