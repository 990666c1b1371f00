/**
 * @file
 * One const TransformerModel serves concurrent full-sequence forward
 * passes: each call's nonlinear hooks and profiling capture are its
 * arguments, so the model holds no per-call state.  Two threads run
 * forward_tokens on one model at once, one exact and one with VLP
 * softmax and SiLU on every layer, and each result must equal the
 * same call made alone.  Run under TSan in CI, which reports any
 * write to the shared model.
 */

#include "model/transformer.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "vlp/vlp_approximator.h"

namespace mugi {
namespace model {
namespace {

TEST(ConcurrentForward, HookTablesStayPerCall)
{
    const ModelConfig config = llama2_7b().scaled_for_eval(2, 32, 64);
    const TransformerModel model(config, 29);
    const std::vector<int> tokens =
        synthetic_tokens(12, config.vocab, 31);

    const auto vlp_exp =
        vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    const auto vlp_silu =
        vlp::make_vlp(nonlinear::NonlinearOp::kSilu, 8, 1);
    const NonlinearHooks vlp_hooks{vlp_exp.get(), vlp_silu.get()};
    const std::vector<NonlinearHooks> exact(config.num_layers);
    const std::vector<NonlinearHooks> approx(config.num_layers,
                                             vlp_hooks);

    const support::MatrixF exact_alone =
        model.forward_tokens(tokens, exact);
    const support::MatrixF approx_alone =
        model.forward_tokens(tokens, approx);
    ASSERT_NE(exact_alone.data(), approx_alone.data());

    for (int round = 0; round < 4; ++round) {
        support::MatrixF exact_out;
        support::MatrixF approx_out;
        std::thread exact_thread([&] {
            exact_out = model.forward_tokens(tokens, exact);
        });
        std::thread approx_thread([&] {
            approx_out = model.forward_tokens(tokens, approx);
        });
        exact_thread.join();
        approx_thread.join();
        EXPECT_EQ(exact_out.data(), exact_alone.data()) << round;
        EXPECT_EQ(approx_out.data(), approx_alone.data()) << round;
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
