#include <cmath>
#include <memory>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "nonlinear/approximator.h"
#include "nonlinear/partial.h"
#include "nonlinear/pwl.h"
#include "nonlinear/taylor.h"

namespace mugi {
namespace nonlinear {
namespace {

// ---- PWL ----

TEST(Pwl, ExactAtSegmentEndpoints)
{
    PwlConfig config;
    config.op = NonlinearOp::kExp;
    config.segments = 22;
    config.segment_range = -20.0;
    const PwlApproximator pwl(config);
    const double step = 20.0 / 22.0;
    for (int s = 0; s <= 22; ++s) {
        const double x = -20.0 + s * step;
        EXPECT_NEAR(pwl.apply(static_cast<float>(x)), std::exp(x), 1e-6)
            << x;
    }
}

TEST(Pwl, OverestimatesConvexFunctions)
{
    // Linear interpolation of a convex function is an upper bound.
    PwlConfig config;
    config.op = NonlinearOp::kExp;
    config.segments = 8;
    config.segment_range = -16.0;
    const PwlApproximator pwl(config);
    for (float x = -15.9f; x < 0.0f; x += 0.37f) {
        EXPECT_GE(pwl.apply(x) + 1e-7, std::exp(x)) << x;
    }
}

TEST(Pwl, FlushesBelowRange)
{
    PwlConfig config;
    config.op = NonlinearOp::kExp;
    config.segment_range = -8.0;
    const PwlApproximator pwl(config);
    // Fig. 8: "-100% error indicates flushing output to 0".
    EXPECT_EQ(pwl.apply(-9.0f), 0.0f);
    EXPECT_EQ(pwl.apply(-100.0f), 0.0f);
}

TEST(Pwl, SiluRangeIsSymmetric)
{
    PwlConfig config;
    config.op = NonlinearOp::kSilu;
    config.segments = 22;
    config.segment_range = 7.0;
    const PwlApproximator pwl(config);
    EXPECT_EQ(pwl.lo(), -7.0);
    EXPECT_EQ(pwl.hi(), 7.0);
    // Outside the range SiLU follows its asymptotes.
    EXPECT_EQ(pwl.apply(9.0f), 9.0f);
    EXPECT_EQ(pwl.apply(-9.0f), 0.0f);
}

TEST(Pwl, MoreSegmentsMoreAccurate)
{
    std::mt19937 rng(61);
    std::uniform_real_distribution<float> dist(-9.9f, 0.0f);
    double err_4 = 0.0, err_32 = 0.0;
    PwlConfig coarse{NonlinearOp::kExp, 4, -10.0};
    PwlConfig fine{NonlinearOp::kExp, 32, -10.0};
    const PwlApproximator pwl4(coarse);
    const PwlApproximator pwl32(fine);
    for (int i = 0; i < 2000; ++i) {
        const float x = dist(rng);
        err_4 += std::fabs(pwl4.apply(x) - std::exp(x));
        err_32 += std::fabs(pwl32.apply(x) - std::exp(x));
    }
    EXPECT_LT(err_32, err_4 / 10.0);
}

// ---- Taylor ----

TEST(Taylor, AccurateNearCenter)
{
    TaylorConfig config{NonlinearOp::kExp, 9, -2.0};
    const TaylorApproximator taylor(config);
    for (float x = -3.0f; x <= -1.0f; x += 0.05f) {
        EXPECT_NEAR(taylor.apply(x), std::exp(x), 1e-5) << x;
    }
}

TEST(Taylor, DegradesFarFromCenter)
{
    TaylorConfig config{NonlinearOp::kExp, 5, 0.0};
    const TaylorApproximator taylor(config);
    const double near_rel =
        std::fabs(taylor.apply(0.5f) - std::exp(0.5)) / std::exp(0.5);
    const double far_rel =
        std::fabs(taylor.apply(-6.0f) - std::exp(-6.0)) / std::exp(-6.0);
    EXPECT_LT(near_rel, 1e-3);
    EXPECT_GT(far_rel, 0.5);  // Sec. 7.2: poor accuracy off-center.
}

TEST(Taylor, ExpOutputNeverNegative)
{
    TaylorConfig config{NonlinearOp::kExp, 9, -5.0};
    const TaylorApproximator taylor(config);
    for (float x = -30.0f; x <= 0.0f; x += 0.1f) {
        EXPECT_GE(taylor.apply(x), 0.0f) << x;
    }
}

TEST(Taylor, CyclesGrowWithDegree)
{
    const TaylorApproximator d3({NonlinearOp::kExp, 3, 0.0});
    const TaylorApproximator d9({NonlinearOp::kExp, 9, 0.0});
    EXPECT_LT(d3.cycles_per_element(), d9.cycles_per_element());
}

TEST(Taylor, SiluSeriesUsable)
{
    // The SiLU series around 0 converges slowly toward |x| = pi (the
    // sigmoid poles sit at +-i pi), so the degree-9 truncation carries
    // ~1e-3 error at |x| = 1.5.
    TaylorConfig config{NonlinearOp::kSilu, 9, 0.0};
    const TaylorApproximator taylor(config);
    for (float x = -1.5f; x <= 1.5f; x += 0.1f) {
        EXPECT_NEAR(taylor.apply(x), silu_ref(x), 2e-3) << x;
    }
}

// ---- Partial approximation ----

TEST(Partial, MatchesHardSwish)
{
    const PartialApproximator pa(NonlinearOp::kSilu);
    EXPECT_EQ(pa.apply(0.0f), 0.0f);
    EXPECT_EQ(pa.apply(-3.0f), 0.0f);
    EXPECT_EQ(pa.apply(-5.0f), 0.0f);
    EXPECT_EQ(pa.apply(3.0f), 3.0f);
    EXPECT_EQ(pa.apply(6.0f), 6.0f);  // Above +3 it is the identity.
    EXPECT_NEAR(pa.apply(1.0f), 1.0f * 4.0f / 6.0f, 1e-6);
}

TEST(Partial, ApproximatesSiluWithinBand)
{
    const PartialApproximator pa(NonlinearOp::kSilu);
    for (float x = -8.0f; x <= 8.0f; x += 0.05f) {
        EXPECT_NEAR(pa.apply(x), silu_ref(x), 0.4f) << x;
    }
}

TEST(Partial, RejectsUnsupportedOps)
{
    EXPECT_THROW(PartialApproximator(NonlinearOp::kExp),
                 std::invalid_argument);
    EXPECT_THROW(PartialApproximator(NonlinearOp::kGelu),
                 std::invalid_argument);
}

// ---- softmax_with ----

TEST(SoftmaxWith, ExactApproximatorMatchesReference)
{
    const auto exact = make_exact(NonlinearOp::kExp);
    std::mt19937 rng(81);
    std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
    std::vector<float> logits(128);
    for (float& v : logits) v = dist(rng);
    std::vector<float> got(logits.size());
    softmax_with(*exact, logits, got);
    const auto expected = softmax_ref(logits);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], expected[i], 1e-6);
    }
}

TEST(SoftmaxWith, DegenerateAllFlushedRowIsUniform)
{
    // A Taylor config so wrong every exp output is ~0 after clamping.
    TaylorConfig config{NonlinearOp::kExp, 1, -40.0};
    const TaylorApproximator bad(config);
    std::vector<float> logits = {0.0f, -1.0f, -2.0f, -3.0f};
    std::vector<float> probs(4);
    softmax_with(bad, logits, probs);
    double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
}  // namespace nonlinear
}  // namespace mugi
