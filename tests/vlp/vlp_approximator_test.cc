#include "vlp/vlp_approximator.h"

#include <cmath>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "numerics/bfloat16.h"
#include "numerics/rounding.h"

namespace mugi {
namespace vlp {
namespace {

using nonlinear::NonlinearOp;

VlpConfig
exp_config()
{
    VlpConfig config;
    config.op = NonlinearOp::kExp;
    config.lut_min_exp = -3;
    config.lut_max_exp = 4;
    return config;
}

VlpConfig
silu_config()
{
    VlpConfig config;
    config.op = NonlinearOp::kSilu;
    config.lut_min_exp = -4;
    config.lut_max_exp = 3;
    return config;
}

TEST(VlpApproximator, InputApproximationSemantics)
{
    // The defining property (Sec. 3): output == exact function at the
    // rounded/windowed input grid point.
    const VlpApproximator vlp(exp_config());
    std::mt19937 rng(111);
    std::uniform_real_distribution<float> dist(-15.0f, 0.0f);
    for (int i = 0; i < 5000; ++i) {
        const float x = dist(rng);
        const float got = vlp.apply(x);
        const numerics::RoundedValue r =
            numerics::round_mantissa(numerics::bf16_round(x), 3);
        if (r.is_zero || r.exponent < -3 || r.exponent > 4) {
            continue;  // Window-clamped; separate tests below.
        }
        const float grid = r.to_float();
        const float expected = numerics::bf16_round(
            static_cast<float>(std::exp(static_cast<double>(grid))));
        EXPECT_EQ(got, expected) << x;
    }
}

TEST(VlpApproximator, RelativeErrorBoundInsideWindow)
{
    // Rounding the significand to 3 bits perturbs the input by at most
    // 2^-4 relative; for exp the output error is |x| * 2^-4 relative
    // at worst (|d exp / exp| = |dx|).  Check a generous bound.
    const VlpApproximator vlp(exp_config());
    for (float x = -7.9f; x <= -0.13f; x += 0.013f) {
        const double exact = std::exp(static_cast<double>(x));
        const double got = vlp.apply(x);
        const double input_step =
            std::fabs(x) * (1.0 / 16.0 + 1.0 / 256.0);
        const double bound = exact * (std::exp(input_step) - 1.0) + 1e-3;
        EXPECT_NEAR(got, exact, bound + 0.01 * exact) << x;
    }
}

TEST(VlpApproximator, UnderflowTreatedAsZero)
{
    const VlpApproximator vlp(exp_config());
    // Exponent below window.lo (-3): |x| < 2^-3 -> treated as 0.
    EXPECT_EQ(vlp.apply(-0.05f), 1.0f);   // exp(0) = 1.
    EXPECT_EQ(vlp.apply(0.0f), 1.0f);

    const VlpApproximator silu(silu_config());
    EXPECT_EQ(silu.apply(0.01f), 0.0f);   // SiLU(0) = 0.
    EXPECT_EQ(silu.apply(0.0f), 0.0f);
}

TEST(VlpApproximator, SoftmaxOverflowClampsIntoLut)
{
    const VlpApproximator vlp(exp_config());
    // Exponent above window.hi (4): clamp to the deepest LUT entry.
    const float deep = vlp.apply(-200.0f);
    EXPECT_GT(deep, 0.0f);
    EXPECT_LT(deep, 1e-8f);  // exp(-(1+7/8) * 2^4) territory.
    // All overflowing inputs clamp to the same single deepest entry.
    EXPECT_EQ(vlp.apply(-500.0f), vlp.apply(-400.0f));
    EXPECT_EQ(vlp.apply(-200.0f), vlp.apply(-1000.0f));
}

TEST(VlpApproximator, SiluGeluOverflowPassesThrough)
{
    const VlpApproximator silu(silu_config());
    // Above the window top (2^4 = 16 and beyond): identity / zero.
    EXPECT_EQ(silu.apply(24.0f), 24.0f);
    EXPECT_EQ(silu.apply(-24.0f), 0.0f);

    VlpConfig gelu_cfg = silu_config();
    gelu_cfg.op = NonlinearOp::kGelu;
    const VlpApproximator gelu(gelu_cfg);
    EXPECT_EQ(gelu.apply(24.0f), 24.0f);
    EXPECT_EQ(gelu.apply(-24.0f), 0.0f);
}

TEST(VlpApproximator, SpecialValues)
{
    const VlpApproximator vlp(exp_config());
    EXPECT_TRUE(std::isnan(vlp.apply(std::nanf(""))));
    EXPECT_EQ(vlp.apply(-INFINITY), 0.0f);

    const VlpApproximator silu(silu_config());
    EXPECT_TRUE(std::isnan(silu.apply(std::nanf(""))));
    EXPECT_EQ(silu.apply(-INFINITY), 0.0f);
    EXPECT_EQ(silu.apply(INFINITY), INFINITY);
}

TEST(VlpApproximator, PositiveInputToSoftmaxExpClampedToOne)
{
    const VlpApproximator vlp(exp_config());
    // Max-subtracted softmax never produces positive inputs; the
    // single-sign datapath treats stray positives as zero.
    EXPECT_EQ(vlp.apply(0.5f), 1.0f);
}

TEST(VlpApproximator, ValueCentricBeatsFixedWindowOffCluster)
{
    // Inputs cluster at small magnitudes; a sliding (coverage) window
    // must beat a fixed-top window pinned at large exponents.
    VlpConfig wide = exp_config();
    wide.lut_min_exp = -6;
    wide.lut_max_exp = 5;
    wide.window_size = 4;
    wide.policy = WindowPolicy::kCoverage;
    VlpConfig fixed = wide;
    fixed.policy = WindowPolicy::kFixedTop;
    const VlpApproximator sliding(wide);
    const VlpApproximator pinned(fixed);

    std::mt19937 rng(121);
    std::uniform_real_distribution<float> dist(-0.9f, -0.2f);
    std::vector<float> inputs(256);
    for (float& v : inputs) v = dist(rng);
    std::vector<float> out_sliding(inputs.size());
    std::vector<float> out_pinned(inputs.size());
    sliding.apply_batch(inputs, out_sliding);
    pinned.apply_batch(inputs, out_pinned);

    double err_sliding = 0.0, err_pinned = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double exact = std::exp(inputs[i]);
        err_sliding += std::fabs(out_sliding[i] - exact);
        err_pinned += std::fabs(out_pinned[i] - exact);
    }
    EXPECT_LT(err_sliding, err_pinned / 2.0);
}

TEST(VlpApproximator, OneKernelServesManyThreads)
{
    // The guarantee documented in vlp_approximator.h, which lets an
    // engine hand one kernel per op to every session: many threads,
    // no synchronization, identical results (run under TSan in CI).
    const VlpApproximator kernel(exp_config());
    std::vector<float> inputs;
    for (float x = -8.0f; x <= 0.0f; x += 0.03125f) {
        inputs.push_back(x);
    }
    std::vector<float> expected(inputs.size());
    kernel.apply_batch(inputs, expected);

    constexpr int kThreads = 8;
    std::vector<std::vector<float>> outs(
        kThreads, std::vector<float>(inputs.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&, t] { kernel.apply_batch(inputs, outs[t]); });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(outs[t], expected) << "thread " << t;
    }
}

TEST(VlpApproximator, BatchWindowsAreChosenPerMapping)
{
    VlpConfig config = exp_config();
    config.lut_min_exp = -6;
    config.lut_max_exp = 5;
    config.window_size = 4;
    config.mapping_rows = 4;
    const VlpApproximator vlp(config);
    // First mapping clusters at exponent -4.., second at +2..: each
    // mapping gets its own window so both are accurate.
    std::vector<float> inputs = {-0.1f,  -0.12f, -0.09f, -0.11f,
                                 -6.0f,  -7.0f,  -5.5f,  -6.5f};
    std::vector<float> out(inputs.size());
    vlp.apply_batch(inputs, out);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double exact = std::exp(inputs[i]);
        EXPECT_NEAR(out[i], exact, 0.05 * exact + 5e-3) << i;
    }
}

TEST(VlpApproximator, MappingLatencyIsSumOfSubscriptions)
{
    const VlpApproximator vlp(exp_config());
    // Sec. 3.1 / Fig. 3(g): mantissa sweep (8) + exponent
    // subscription (8) = 16 cycles end-to-end for one mapping.
    EXPECT_EQ(vlp.mapping_latency_cycles(), 16u);
    // Pipelined throughput: one element per row per 8 cycles.
    EXPECT_DOUBLE_EQ(vlp.cycles_per_element(), 8.0);
}

TEST(VlpApproximator, SoftmaxEndToEndCloseToExact)
{
    const VlpApproximator vlp(exp_config());
    std::mt19937 rng(131);
    std::normal_distribution<float> dist(0.0f, 2.0f);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<float> logits(64);
        for (float& v : logits) v = dist(rng);
        std::vector<float> approx(logits.size());
        nonlinear::softmax_with(vlp, logits, approx);
        const auto exact = nonlinear::softmax_ref(logits);
        double sum = std::accumulate(approx.begin(), approx.end(), 0.0);
        EXPECT_NEAR(sum, 1.0, 1e-5);
        double l1 = 0.0;
        for (std::size_t i = 0; i < approx.size(); ++i) {
            l1 += std::fabs(approx[i] - exact[i]);
        }
        EXPECT_LT(l1, 0.2) << trial;  // Total variation distance.
    }
}

class VlpOpTest : public ::testing::TestWithParam<NonlinearOp> {};

TEST_P(VlpOpTest, AccurateNearTheImportantRegion)
{
    const NonlinearOp op = GetParam();
    VlpConfig config;
    config.op = op;
    if (op == NonlinearOp::kExp) {
        config.lut_min_exp = -3;
        config.lut_max_exp = 4;
    } else {
        // A window reaching down to 2^-6 so the underflow flush only
        // affects |x| < 0.016, where SiLU/GELU are below 0.01.
        config.lut_min_exp = -6;
        config.lut_max_exp = 1;
    }
    const VlpApproximator vlp(config);
    // Fig. 8: VLP "has the best accuracy where inputs are important"
    // -- around zero for SiLU/GELU.  Tolerance reflects the 3-bit
    // mantissa grid (~6% input step).
    double worst = 0.0;
    for (float x = -2.0f; x <= (op == NonlinearOp::kExp ? -0.13f : 2.0f);
         x += 0.01f) {
        const double exact = nonlinear::eval_ref(op, x);
        const double err = std::fabs(vlp.apply(x) - exact);
        const double rel = err / std::max(0.1, std::fabs(exact));
        worst = std::max(worst, rel);
    }
    EXPECT_LT(worst, 0.12) << nonlinear::op_name(op);
}

INSTANTIATE_TEST_SUITE_P(Ops, VlpOpTest,
                         ::testing::Values(NonlinearOp::kExp,
                                           NonlinearOp::kSilu,
                                           NonlinearOp::kGelu),
                         [](const auto& info) {
                             return nonlinear::op_name(info.param);
                         });

TEST(VlpApproximator, MakeVlpFigureSixParameterization)
{
    // Fig. 6 sweeps LUT size and max exp; verify the mapping.
    const auto vlp = make_vlp(NonlinearOp::kExp, 10, 2);
    EXPECT_EQ(vlp->config().lut_max_exp, 2);
    EXPECT_EQ(vlp->config().lut_min_exp, 2 - 10 + 1);
    EXPECT_EQ(vlp->lut().config().num_exponents(), 10);
}

}  // namespace
}  // namespace vlp
}  // namespace mugi
