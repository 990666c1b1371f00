/**
 * @file
 * Cross-module integration tests exercising the full pipeline the
 * paper describes: profile a workload's nonlinear inputs (Sec. 3.3),
 * derive the LUT window from the profile (Fig. 4 -> Fig. 5), deploy
 * the VLP approximator with that window, and verify both model
 * quality and the architecture models end to end.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "arch/mugi_node.h"
#include "model/accuracy.h"
#include "model/profiler.h"
#include "model/transformer.h"
#include "serve/engine.h"
#include "sim/event_sim.h"
#include "sim/performance_model.h"
#include "vlp/vlp_approximator.h"

namespace mugi {
namespace core {
namespace {

TEST(Integration, ProfileDrivenWindowBeatsBlindWindow)
{
    // 1. Profile the softmax inputs of a model (Fig. 4).
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(2, 48, 128);
    const model::TransformerModel m(config, 881);
    model::NonlinearProfiler profiler;
    const auto tokens = model::synthetic_tokens(24, config.vocab, 883);
    m.forward_tokens(tokens, {}, profiler.capture());

    // 2. Derive the LUT window from the merged profile (Fig. 5).
    const model::SiteProfile merged =
        profiler.merged(nonlinear::NonlinearOp::kExp);
    const auto [lo, hi] = merged.dominant_exponent_window(8);
    ASSERT_GE(merged.exponent_coverage(lo, hi), 0.9)
        << "profiled exponents must cluster (the Sec. 3.3 insight)";

    // 3. Deploy VLP with the profiled window vs a blind window far
    //    outside the cluster.
    const auto profiled = vlp::make_vlp(nonlinear::NonlinearOp::kExp,
                                        hi - lo + 1, hi);
    const auto blind = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8,
                                     lo - 10);
    model::EvalOptions options;
    options.num_sequences = 2;
    options.seq_len = 12;
    const std::vector<model::TeacherPass> teacher =
        model::teacher_passes(m, options);
    model::NonlinearHooks hooks;
    hooks.softmax_exp = profiled.get();
    const double ppl_profiled =
        model::evaluate_against_exact(m, hooks, teacher).perplexity;
    hooks.softmax_exp = blind.get();
    const double ppl_blind =
        model::evaluate_against_exact(m, hooks, teacher).perplexity;
    const double base =
        model::evaluate_base(m, teacher).perplexity;

    EXPECT_LT(ppl_profiled, ppl_blind);
    EXPECT_LT(ppl_profiled - base, 0.05 * base)
        << "profiled window must land near the exact baseline";
}

TEST(Integration, NodeModelAndPerfModelAgreeOnNonlinearThroughput)
{
    // The cycle-accurate node and the analytic model must agree on
    // nonlinear throughput (elements per cycle).
    vlp::VlpConfig config;
    config.op = nonlinear::NonlinearOp::kExp;
    config.lut_min_exp = -3;
    config.lut_max_exp = 4;
    const std::size_t rows = 64;
    const arch::MugiNode node(config, rows);
    std::vector<float> inputs(rows * 10);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = -0.2f - 0.01f * static_cast<float>(i % 97);
    }
    const arch::MugiNonlinearRun run = node.run_nonlinear(inputs);

    model::NonlinearWork work;
    work.op = nonlinear::NonlinearOp::kExp;
    work.elements = inputs.size();
    const sim::OpCost cost =
        sim::nonlinear_cost(sim::make_mugi(rows), work);
    // Steady-state analytic cycles vs simulated (one drain apart).
    EXPECT_NEAR(static_cast<double>(run.cycles), cost.compute_cycles,
                static_cast<double>(config.window_size) + 1.0);
}

TEST(Integration, FullSystemEvaluationEndToEnd)
{
    // serve::Engine over every Table 1 Llama model: reports must be
    // internally consistent and ordered sensibly.
    double prev_runtime = 0.0;
    for (const model::ModelConfig& m : model::llama_family()) {
        const serve::Engine engine(sim::make_mugi(256));
        const serve::SystemReport report =
            engine.evaluate(model::build_decode_workload(m, 8, 2048));
        // Bigger models take longer per step.
        EXPECT_GT(report.perf.runtime_s, prev_runtime) << m.name;
        prev_runtime = report.perf.runtime_s;
        // Event sim validates the analytic total.
        EXPECT_NEAR(report.event_sim.makespan_cycles,
                    report.perf.total_cycles,
                    0.4 * report.perf.total_cycles)
            << m.name;
        // Carbon components positive and operational-dominated at
        // 45 nm (Sec. 6.3.2).
        EXPECT_GT(report.carbon.operational_g_per_token,
                  report.carbon.embodied_g_per_token)
            << m.name;
    }
}

TEST(Integration, WoqKvqVlpComposeWithoutCollapse)
{
    // The full numerical stack at once: WOQ weights + KVQ cache +
    // VLP softmax/SiLU on the decode path must stay aligned with the
    // clean FP model's next-token ranking on a short horizon.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto clean =
        std::make_shared<model::TransformerModel>(config, 907);
    auto lossy =
        std::make_shared<model::TransformerModel>(config, 907);
    lossy->apply_woq(16);
    const auto vlp_exp =
        vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    vlp::VlpConfig silu_cfg;
    silu_cfg.op = nonlinear::NonlinearOp::kSilu;
    silu_cfg.lut_min_exp = -6;
    silu_cfg.lut_max_exp = 1;
    const vlp::VlpApproximator vlp_silu(silu_cfg);
    model::NonlinearHooks hooks;
    hooks.softmax_exp = vlp_exp.get();
    hooks.activation = &vlp_silu;

    // Clean: float KV, exact nonlinearities.  Lossy: INT4 KV, VLP.
    const serve::Engine clean_engine(sim::make_mugi(64), clean);
    const serve::Engine lossy_engine(sim::make_mugi(64), lossy);
    serve::SessionOptions float_kv;
    float_kv.kv_precision = quant::KvPrecision::kFloat;
    serve::Session clean_session =
        clean_engine.create_session(float_kv);
    clean_session.set_hooks(model::NonlinearHooks{});
    serve::Session lossy_session = lossy_engine.create_session();
    lossy_session.set_hooks(hooks);
    const auto tokens = model::synthetic_tokens(10, config.vocab, 911);
    double cosine_sum = 0.0;
    for (const int t : tokens) {
        const auto lc =
            clean_engine.step(clean_session, t).outputs[0].logits;
        const auto ll =
            lossy_engine.step(lossy_session, t).outputs[0].logits;
        double dot = 0.0, nc = 0.0, nl = 0.0;
        for (std::size_t v = 0; v < lc.size(); ++v) {
            dot += lc[v] * ll[v];
            nc += lc[v] * lc[v];
            nl += ll[v] * ll[v];
        }
        cosine_sum += dot / std::sqrt(nc * nl);
    }
    EXPECT_GT(cosine_sum / static_cast<double>(tokens.size()), 0.9);
}

}  // namespace
}  // namespace core
}  // namespace mugi
