#ifndef MUGI_MODEL_ACCURACY_H_
#define MUGI_MODEL_ACCURACY_H_

/**
 * @file
 * The accuracy harness behind Fig. 6/7: perplexity (language models)
 * and loss (vision models) of a transformer whose nonlinear operations
 * run through an approximator, measured against the same model running
 * exact nonlinearities.
 *
 * Without pretrained checkpoints (see DESIGN.md substitutions) the
 * data distribution is the *exact model's own predictive
 * distribution*: for each position we compute the exact model's
 * probabilities p and score the approximated model's log-probs q with
 * the cross-entropy  H(p, q) = -sum_i p_i log q_i.  For the exact
 * model this reduces to the predictive entropy (the "Base" column of
 * Fig. 6); every approximation error strictly increases it.  PPL =
 * exp(H).
 */

#include <cstdint>
#include <span>
#include <vector>

#include "model/transformer.h"

namespace mugi {
namespace model {

/** Quality metrics of one evaluation run. */
struct EvalResult {
    double cross_entropy = 0.0;  ///< Mean H(p_exact, q_approx), nats.
    double perplexity = 0.0;     ///< exp(cross_entropy).
    double kl = 0.0;             ///< Mean KL(p_exact || q_approx).
    std::size_t positions = 0;   ///< Scored positions.
};

/** Options for an evaluation run. */
struct EvalOptions {
    std::size_t num_sequences = 4;
    std::size_t seq_len = 32;
    std::uint32_t data_seed = 1234;
};

/**
 * Deterministic synthetic token stream: a seeded Zipfian 2-gram
 * source, the stand-in for the paper's evaluation corpora.
 */
std::vector<int> synthetic_tokens(std::size_t count, std::size_t vocab,
                                  std::uint32_t seed);

/** One evaluation sequence and the teacher's logits over it. */
struct TeacherPass {
    std::vector<int> tokens;
    support::MatrixF logits;
};

/**
 * The exact-nonlinearity teacher (@p model with no hooks) over every
 * sequence @p options draws.  Its logits depend only on the model's
 * weights and the sequence, so one set of passes serves every student
 * scored against those weights; build a new one after apply_woq.
 */
std::vector<TeacherPass> teacher_passes(const TransformerModel& model,
                                        const EvalOptions& options);

/**
 * Evaluate @p model running @p hooks on every layer against
 * @p teacher, the teacher passes of the same weights.
 */
EvalResult evaluate_against_exact(
    const TransformerModel& model, const NonlinearHooks& hooks,
    std::span<const TeacherPass> teacher);

/**
 * Convenience: the exact model's own score (hooks = none), i.e. the
 * "Base" perplexity of Fig. 6.
 */
EvalResult evaluate_base(const TransformerModel& model,
                         std::span<const TeacherPass> teacher);

/**
 * Greedy per-layer tuning (Fig. 7): for each layer in order, try
 * every candidate window anchor and keep the one minimizing PPL with
 * all earlier layers already tuned.  Returns the PPL after each
 * layer's tuning step.
 */
struct PerLayerTuningResult {
    std::vector<double> ppl_after_layer;
    std::vector<int> chosen_max_exp;
    double final_ppl = 0.0;
};

PerLayerTuningResult tune_softmax_per_layer(
    const TransformerModel& model,
    const std::vector<int>& candidate_max_exps, int lut_size,
    std::span<const TeacherPass> teacher);

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_ACCURACY_H_
