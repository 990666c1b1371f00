#include "model/accuracy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nonlinear/pwl.h"
#include "nonlinear/taylor.h"
#include "vlp/vlp_approximator.h"

namespace mugi {
namespace model {
namespace {

ModelConfig
eval_config()
{
    return llama2_7b().scaled_for_eval(2, 32, 64);
}

EvalOptions
fast_options()
{
    EvalOptions options;
    options.num_sequences = 2;
    options.seq_len = 12;
    return options;
}

TEST(Accuracy, SyntheticTokensDeterministicAndInRange)
{
    const auto a = synthetic_tokens(100, 64, 9);
    const auto b = synthetic_tokens(100, 64, 9);
    EXPECT_EQ(a, b);
    const auto c = synthetic_tokens(100, 64, 10);
    EXPECT_NE(a, c);
    for (const int t : a) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, 64);
    }
}

TEST(Accuracy, BaseEqualsEntropyAndKlZero)
{
    TransformerModel model(eval_config(), 53);
    const EvalResult base =
        evaluate_base(model, teacher_passes(model, fast_options()));
    EXPECT_GT(base.perplexity, 1.0);
    EXPECT_NEAR(base.kl, 0.0, 1e-9);
    EXPECT_NEAR(base.perplexity, std::exp(base.cross_entropy), 1e-9);
}

TEST(Accuracy, ApproximationNeverBeatsExact)
{
    // Cross-entropy against the exact model's distribution is
    // minimized by the exact model itself (Gibbs' inequality).
    TransformerModel model(eval_config(), 59);
    const std::vector<TeacherPass> teacher =
        teacher_passes(model, fast_options());
    const EvalResult base = evaluate_base(model, teacher);

    const auto vlp = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    NonlinearHooks hooks;
    hooks.softmax_exp = vlp.get();
    const EvalResult approx =
        evaluate_against_exact(model, hooks, teacher);
    EXPECT_GE(approx.cross_entropy, base.cross_entropy - 1e-9);
    EXPECT_GE(approx.kl, 0.0);
}

TEST(Accuracy, GoodVlpWindowBeatsBadWindow)
{
    TransformerModel model(eval_config(), 61);
    const std::vector<TeacherPass> teacher =
        teacher_passes(model, fast_options());

    const auto good = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 3);
    const auto bad = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, -9);
    NonlinearHooks hooks_good, hooks_bad;
    hooks_good.softmax_exp = good.get();
    hooks_bad.softmax_exp = bad.get();

    const double ppl_good =
        evaluate_against_exact(model, hooks_good, teacher).perplexity;
    const double ppl_bad =
        evaluate_against_exact(model, hooks_bad, teacher).perplexity;
    EXPECT_LT(ppl_good, ppl_bad);
}

TEST(Accuracy, VlpCompetitiveWithBaselinesOnActivation)
{
    // Fig. 6 bottom row: VLP S/G within a reasonable band of PWL.
    TransformerModel model(eval_config(), 67);
    const std::vector<TeacherPass> teacher =
        teacher_passes(model, fast_options());
    const double base = evaluate_base(model, teacher).perplexity;

    vlp::VlpConfig vcfg;
    vcfg.op = nonlinear::NonlinearOp::kSilu;
    vcfg.lut_min_exp = -6;
    vcfg.lut_max_exp = 1;
    const vlp::VlpApproximator vlp_silu(vcfg);
    NonlinearHooks hooks;
    hooks.activation = &vlp_silu;
    const double ppl_vlp =
        evaluate_against_exact(model, hooks, teacher).perplexity;

    nonlinear::PwlConfig pcfg{nonlinear::NonlinearOp::kSilu, 22, 7.0};
    const nonlinear::PwlApproximator pwl(pcfg);
    hooks.activation = &pwl;
    const double ppl_pwl =
        evaluate_against_exact(model, hooks, teacher).perplexity;

    // Both land close to base; VLP within 2x of PWL's delta + slack.
    EXPECT_LT(ppl_vlp - base, 2.0 * (ppl_pwl - base) + 0.25);
}

TEST(Accuracy, PerLayerTuningImproves)
{
    TransformerModel model(eval_config(), 71);
    EvalOptions options = fast_options();
    options.num_sequences = 1;
    options.seq_len = 10;
    const std::vector<TeacherPass> teacher =
        teacher_passes(model, options);

    // Deliberately start from a bad anchor; tuning must escape it.
    const std::vector<int> candidates = {-9, 0, 3};
    const PerLayerTuningResult tuned =
        tune_softmax_per_layer(model, candidates, 8, teacher);
    ASSERT_EQ(tuned.ppl_after_layer.size(), model.num_layers());
    ASSERT_EQ(tuned.chosen_max_exp.size(), model.num_layers());
    // The greedy trajectory is non-increasing (the starting config is
    // always among the candidates).
    for (std::size_t l = 1; l < tuned.ppl_after_layer.size(); ++l) {
        EXPECT_LE(tuned.ppl_after_layer[l],
                  tuned.ppl_after_layer[l - 1] + 1e-9);
    }

    // Compare against the uniformly bad anchor.
    const auto bad = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, -9);
    NonlinearHooks hooks;
    hooks.softmax_exp = bad.get();
    const double ppl_bad =
        evaluate_against_exact(model, hooks, teacher).perplexity;
    EXPECT_LE(tuned.final_ppl, ppl_bad + 1e-9);
    for (const int e : tuned.chosen_max_exp) {
        EXPECT_NE(e, -9);  // The pathological anchor is never chosen.
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
