#include "model/accuracy.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <span>

#include "vlp/vlp_approximator.h"

namespace mugi {
namespace model {
namespace {

/** Log-softmax of a logits row, numerically stable. */
std::vector<double>
log_softmax(const float* logits, std::size_t n)
{
    const float max = *std::max_element(logits, logits + n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += std::exp(static_cast<double>(logits[i]) - max);
    }
    const double log_sum = std::log(sum) + max;
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<double>(logits[i]) - log_sum;
    }
    return out;
}

}  // namespace

std::vector<int>
synthetic_tokens(std::size_t count, std::size_t vocab,
                 std::uint32_t seed)
{
    std::mt19937 rng(seed);
    // Zipfian unigram weights.
    std::vector<double> weights(vocab);
    for (std::size_t i = 0; i < vocab; ++i) {
        weights[i] = 1.0 / static_cast<double>(i + 1);
    }
    std::discrete_distribution<int> unigram(weights.begin(),
                                            weights.end());
    // Sparse 2-gram structure: each token prefers a few successors.
    std::uniform_int_distribution<int> any(0,
                                           static_cast<int>(vocab) - 1);
    std::vector<std::array<int, 4>> successors(vocab);
    for (auto& s : successors) {
        for (int& t : s) {
            t = any(rng);
        }
    }
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 3);
    std::vector<int> tokens;
    tokens.reserve(count);
    int prev = unigram(rng);
    tokens.push_back(prev);
    while (tokens.size() < count) {
        const int next = (coin(rng) < 0.7)
                             ? successors[prev][pick(rng)]
                             : unigram(rng);
        tokens.push_back(next);
        prev = next;
    }
    return tokens;
}

std::vector<TeacherPass>
teacher_passes(const TransformerModel& model,
               const EvalOptions& options)
{
    std::vector<TeacherPass> passes;
    passes.reserve(options.num_sequences);
    for (std::size_t s = 0; s < options.num_sequences; ++s) {
        std::vector<int> tokens = synthetic_tokens(
            options.seq_len, model.config().vocab,
            options.data_seed + static_cast<std::uint32_t>(s));
        support::MatrixF logits = model.forward_tokens(tokens);
        passes.push_back({std::move(tokens), std::move(logits)});
    }
    return passes;
}

namespace {

/**
 * Score @p model running @p layer_hooks (one entry per layer)
 * against the teacher passes of the same model.
 */
EvalResult
evaluate_layers(const TransformerModel& model,
                std::span<const NonlinearHooks> layer_hooks,
                std::span<const TeacherPass> teacher)
{
    const ModelConfig& config = model.config();
    EvalResult result;
    double ce_sum = 0.0;
    double kl_sum = 0.0;
    std::size_t positions = 0;

    for (const TeacherPass& pass : teacher) {
        const std::vector<int>& tokens = pass.tokens;
        const support::MatrixF& exact_logits = pass.logits;
        const support::MatrixF approx_logits =
            model.forward_tokens(tokens, layer_hooks);

        for (std::size_t t = 0; t < tokens.size(); ++t) {
            const auto log_p =
                log_softmax(exact_logits.row_data(t), config.vocab);
            const auto log_q =
                log_softmax(approx_logits.row_data(t), config.vocab);
            double ce = 0.0;
            double kl = 0.0;
            for (std::size_t i = 0; i < config.vocab; ++i) {
                const double p = std::exp(log_p[i]);
                ce -= p * log_q[i];
                kl += p * (log_p[i] - log_q[i]);
            }
            ce_sum += ce;
            kl_sum += kl;
            ++positions;
        }
    }
    result.positions = positions;
    result.cross_entropy = ce_sum / static_cast<double>(positions);
    result.kl = kl_sum / static_cast<double>(positions);
    result.perplexity = std::exp(result.cross_entropy);
    return result;
}

}  // namespace

EvalResult
evaluate_against_exact(const TransformerModel& model,
                       const NonlinearHooks& hooks,
                       std::span<const TeacherPass> teacher)
{
    const std::vector<NonlinearHooks> layer_hooks(model.num_layers(),
                                                  hooks);
    return evaluate_layers(model, layer_hooks, teacher);
}

EvalResult
evaluate_base(const TransformerModel& model,
              std::span<const TeacherPass> teacher)
{
    return evaluate_against_exact(model, NonlinearHooks{}, teacher);
}

PerLayerTuningResult
tune_softmax_per_layer(const TransformerModel& model,
                       const std::vector<int>& candidate_max_exps,
                       int lut_size,
                       std::span<const TeacherPass> teacher)
{
    assert(!candidate_max_exps.empty());
    PerLayerTuningResult result;
    const std::size_t layers = model.num_layers();

    // Owning store of per-layer approximators (hooks keep pointers).
    std::vector<std::unique_ptr<vlp::VlpApproximator>> chosen(layers);
    // The student's table: each layer's softmax window, activations
    // exact.
    std::vector<NonlinearHooks> table(layers);

    // Start from a single global configuration on every layer (the
    // first candidate); tuning then improves layers one at a time, so
    // the PPL trajectory is non-increasing -- the Fig. 7 shape.
    for (std::size_t layer = 0; layer < layers; ++layer) {
        chosen[layer] = vlp::make_vlp(nonlinear::NonlinearOp::kExp,
                                      lut_size,
                                      candidate_max_exps.front());
        table[layer].softmax_exp = chosen[layer].get();
    }

    for (std::size_t layer = 0; layer < layers; ++layer) {
        double best_ppl = std::numeric_limits<double>::infinity();
        int best_exp = candidate_max_exps.front();
        std::unique_ptr<vlp::VlpApproximator> best_approx;
        for (const int max_exp : candidate_max_exps) {
            auto approx = vlp::make_vlp(nonlinear::NonlinearOp::kExp,
                                        lut_size, max_exp);
            table[layer].softmax_exp = approx.get();
            const double ppl =
                evaluate_layers(model, table, teacher).perplexity;
            if (ppl < best_ppl) {
                best_ppl = ppl;
                best_exp = max_exp;
                best_approx = std::move(approx);
            }
        }
        chosen[layer] = std::move(best_approx);
        table[layer].softmax_exp = chosen[layer].get();
        result.ppl_after_layer.push_back(best_ppl);
        result.chosen_max_exp.push_back(best_exp);
    }
    result.final_ppl = result.ppl_after_layer.back();
    return result;
}

}  // namespace model
}  // namespace mugi
