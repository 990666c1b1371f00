/**
 * @file
 * Multithreaded stress over the Engine's documented concurrent-const
 * contract (engine.h): N threads drive Engine::step over *disjoint*
 * session sets through ONE shared engine -- its one VLP kernel per
 * op, one functional TransformerModel, one shared quant::BlockPool
 * behind every session's KV caches, and one shared PreparedWeights
 * handle raced through run_prepared_gemm.  Each thread's logits must
 * be bit-identical to a single-threaded reference run: concurrency
 * may reorder work between sessions, never change any session's
 * numerics.  Run under TSan in CI (the gcc-tsan matrix entry) --
 * these are the first tests to execute the serving stack on more
 * than one thread.
 */

#include "serve/engine.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "quant/block_allocator.h"
#include "serve/prepared_weights.h"

namespace mugi {
namespace serve {
namespace {

void
run_threads(std::size_t n, const std::function<void(std::size_t)>& body)
{
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back(body, t);
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
}

TEST(EngineStepStress, DisjointSessionsAcrossThreadsMatchReference)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 1234);
    const Engine engine(sim::make_mugi(64), transformer);
    quant::BlockPool pool;  // Shared by every thread's KV caches.

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kSteps = 6;
    const std::size_t prompt_lens[kThreads] = {3, 5, 7, 9};

    std::vector<std::vector<int>> prompts;
    for (std::size_t t = 0; t < kThreads; ++t) {
        prompts.push_back(model::synthetic_tokens(
            prompt_lens[t], config.vocab,
            static_cast<std::uint32_t>(100 + t)));
    }

    // Reference: the same prompts decoded greedily one thread at a
    // time (separate engine so no state is shared with the race).
    const Engine reference(sim::make_mugi(64), transformer);
    std::vector<std::vector<float>> expected_logits(kThreads);
    std::vector<std::vector<int>> expected_tokens(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        Session session = reference.create_session();
        std::vector<float> logits =
            reference.prefill(session, prompts[t]);
        int token = static_cast<int>(t + 1);
        for (std::size_t s = 0; s < kSteps; ++s) {
            const StepResult r = reference.step(session, token);
            token = r.outputs[0].next_token;
            expected_tokens[t].push_back(token);
            expected_logits[t] = r.outputs[0].logits;
        }
    }

    // Race: each thread owns its session exclusively; everything
    // else -- engine, kernels, model, pool -- is shared.
    std::vector<std::vector<float>> got_logits(kThreads);
    std::vector<std::vector<int>> got_tokens(kThreads);
    run_threads(kThreads, [&](std::size_t t) {
        SessionOptions options;
        options.kv_pool = &pool;
        Session session = engine.create_session(options);
        engine.prefill(session, prompts[t]);
        int token = static_cast<int>(t + 1);
        for (std::size_t s = 0; s < kSteps; ++s) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            got_tokens[t].push_back(token);
            got_logits[t] = r.outputs[0].logits;
        }
        // The session dies with the lambda, releasing its blocks
        // back to the shared pool before the joins below.
    });

    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got_tokens[t], expected_tokens[t]) << "thread " << t;
        ASSERT_EQ(got_logits[t].size(), expected_logits[t].size());
        for (std::size_t v = 0; v < expected_logits[t].size(); ++v) {
            // Bit-identical: same numerical path per session, no
            // matter how the threads interleaved.
            EXPECT_EQ(got_logits[t][v], expected_logits[t][v])
                << "thread " << t << " vocab " << v;
        }
    }
    // Every session destroyed: the shared pool must drain to zero,
    // and its from-scratch recount must hold after the race.
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(pool.check_invariants(), "");
}

TEST(EngineStepStress, SharedPreparedWeightsGemmIsBitIdentical)
{
    constexpr std::size_t kRows = 48, kCols = 32, kGroup = 16;
    support::MatrixF weights(kRows, kCols);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights.data()[i] =
            0.01f * static_cast<float>((i * 37) % 101) - 0.5f;
    }
    support::MatrixF activations(kCols, 4);
    for (std::size_t i = 0; i < activations.size(); ++i) {
        activations.data()[i] =
            0.02f * static_cast<float>((i * 53) % 89) - 0.9f;
    }

    // One quantization, one handle, shared by every thread.
    const PreparedWeights prepared(weights, kGroup);
    const support::MatrixF reference =
        run_prepared_gemm(prepared, activations);

    constexpr std::size_t kThreads = 8;
    run_threads(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < 20; ++i) {
            const support::MatrixF out =
                run_prepared_gemm(prepared, activations);
            ASSERT_EQ(out.rows(), reference.rows());
            ASSERT_EQ(out.cols(), reference.cols());
            for (std::size_t k = 0; k < out.size(); ++k) {
                ASSERT_EQ(out.data()[k], reference.data()[k]);
            }
        }
    });
}

}  // namespace
}  // namespace serve
}  // namespace mugi
