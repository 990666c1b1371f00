#include "model/moe.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "support/rng.h"

namespace mugi {
namespace model {

MoeFfn::MoeFfn(const MoeConfig& config, std::uint32_t seed)
    : config_(config), selection_counts_(config.num_experts, 0)
{
    assert(config_.top_k >= 1 && config_.top_k <= config_.num_experts);
    support::Mt19937 rng(seed);
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(config_.d_model));
    const float inv_sqrt_ff =
        1.0f / std::sqrt(static_cast<float>(config_.d_ff));

    router_ = support::MatrixF(config_.d_model, config_.num_experts);
    support::fill_gaussian(router_, rng, 0.0f, 2.0f * inv_sqrt_d);

    experts_.reserve(config_.num_experts);
    for (std::size_t e = 0; e < config_.num_experts; ++e) {
        Expert expert;
        expert.w_gate =
            support::MatrixF(config_.d_model, config_.d_ff);
        expert.w_up = support::MatrixF(config_.d_model, config_.d_ff);
        expert.w_down =
            support::MatrixF(config_.d_ff, config_.d_model);
        support::fill_gaussian(expert.w_gate, rng, 0.0f,
                               2.0f * inv_sqrt_d);
        support::fill_gaussian(expert.w_up, rng, 0.0f,
                               2.0f * inv_sqrt_d);
        support::fill_gaussian(expert.w_down, rng, 0.0f, inv_sqrt_ff);
        experts_.push_back(std::move(expert));
    }
}

support::MatrixF
MoeFfn::expert_forward(
    const Expert& expert, const support::MatrixF& x_row,
    const nonlinear::NonlinearApproximator* activation) const
{
    support::MatrixF gate = linear(x_row, expert.w_gate);
    const support::MatrixF up = linear(x_row, expert.w_up);
    apply_activation(gate, config_.activation, activation);
    for (std::size_t i = 0; i < gate.size(); ++i) {
        gate.data()[i] *= up.data()[i];
    }
    return linear(gate, expert.w_down);
}

support::MatrixF
MoeFfn::forward(const support::MatrixF& x,
                const nonlinear::NonlinearApproximator* gate_exp,
                const nonlinear::NonlinearApproximator* activation) const
{
    assert(x.cols() == config_.d_model);
    selection_counts_.assign(config_.num_experts, 0);

    // Router: gate logits then (possibly approximate) softmax.
    support::MatrixF gates = linear(x, router_);
    softmax_rows(gates, gate_exp);

    support::MatrixF out(x.rows(), config_.d_model, 0.0f);
    std::vector<std::size_t> order(config_.num_experts);
    support::MatrixF x_row(1, config_.d_model);
    for (std::size_t t = 0; t < x.rows(); ++t) {
        std::iota(order.begin(), order.end(), 0);
        std::partial_sort(
            order.begin(), order.begin() + config_.top_k, order.end(),
            [&](std::size_t a, std::size_t b) {
                return gates.at(t, a) > gates.at(t, b);
            });
        double weight_sum = 0.0;
        for (std::size_t k = 0; k < config_.top_k; ++k) {
            weight_sum += gates.at(t, order[k]);
        }
        if (weight_sum <= 0.0) {
            weight_sum = 1.0;
        }
        std::copy(x.row_data(t), x.row_data(t) + config_.d_model,
                  x_row.row_data(0));
        for (std::size_t k = 0; k < config_.top_k; ++k) {
            const std::size_t e = order[k];
            ++selection_counts_[e];
            const float weight = static_cast<float>(
                gates.at(t, e) / weight_sum);
            const support::MatrixF y =
                expert_forward(experts_[e], x_row, activation);
            for (std::size_t c = 0; c < config_.d_model; ++c) {
                out.at(t, c) += weight * y.at(0, c);
            }
        }
    }
    return out;
}

}  // namespace model
}  // namespace mugi
