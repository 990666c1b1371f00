/**
 * @file
 * Bit-identity of the pooled Engine::step (a worker pool passed in)
 * against the serial pass (no pool): mixed prefill-and-decode
 * plans, mixed KV precisions (INT4 + float), ragged contexts, a
 * single-session 32-token chunk, a batch-1 decode and a one-token
 * prefill, across 1/2/4-worker pools -- every logit and token must
 * match the serial run exactly, since pooled partitioning only
 * reorders *when* disjoint outputs are computed, never what is
 * computed (thread_pool.h's determinism contract).  Run under TSan
 * in CI: the column-panel, row-range and (cache, kv head) tasks on
 * the caller's worker pool are exactly the interleavings the
 * sanitizer should see.
 */

#include "serve/engine.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "quant/block_allocator.h"
#include "support/thread_pool.h"

namespace mugi {
namespace serve {
namespace {

struct PlanOutputs {
    std::vector<std::vector<float>> logits;  ///< Decode then prefill.
    std::vector<int> tokens;
};

/**
 * Run @p steps mixed iterations on a pool of @p threads workers
 * (none when 0): 4 decode lanes with alternating KV precision and
 * ragged prompts, plus 2 prefill chunks per iteration feeding two
 * more sessions chunk by chunk; then one
 * plan holding a single session's 32-token chunk, whose rows share
 * one cache (one attention task per kv head); then two one-row
 * plans, a batch-1 decode of that session and a one-token prefill
 * of a fresh one, which only the GEMMs' column panels can split.
 */
PlanOutputs
run_mixed(const Engine& engine, const model::ModelConfig& config,
          std::size_t threads, std::size_t steps,
          quant::BlockPool* pool)
{
    std::unique_ptr<support::ThreadPool> workers;
    if (threads > 0) {
        workers = std::make_unique<support::ThreadPool>(threads);
    }
    constexpr std::size_t kDecode = 4;
    std::vector<Session> decoders;
    std::vector<int> feed(kDecode);
    for (std::size_t i = 0; i < kDecode; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i % 2 == 0 ? quant::KvPrecision::kInt4
                                          : quant::KvPrecision::kFloat;
        decoders.push_back(engine.create_session(options));
        engine.prefill(decoders.back(),
                       model::synthetic_tokens(
                           3 + 2 * i, config.vocab,
                           static_cast<std::uint32_t>(50 + i)));
        feed[i] = static_cast<int>(i + 1);
    }

    // Two prefill sessions fed one chunk per iteration.
    constexpr std::size_t kPrefill = 2;
    std::vector<Session> prefillers;
    std::vector<std::vector<int>> prompts;
    std::vector<std::size_t> fed(kPrefill, 0);
    for (std::size_t i = 0; i < kPrefill; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i % 2 == 0
                                   ? quant::KvPrecision::kFloat
                                   : quant::KvPrecision::kInt4;
        prefillers.push_back(engine.create_session(options));
        prompts.push_back(model::synthetic_tokens(
            static_cast<std::size_t>(4 * steps),  // Chunks of 4.
            config.vocab, static_cast<std::uint32_t>(80 + i)));
    }

    PlanOutputs out;
    for (std::size_t step = 0; step < steps; ++step) {
        StepPlan plan;
        for (std::size_t i = 0; i < kDecode; ++i) {
            plan.decode_sessions.push_back(&decoders[i]);
            plan.decode_tokens.push_back(feed[i]);
        }
        for (std::size_t i = 0; i < kPrefill; ++i) {
            StepPlan::PrefillEntry entry;
            entry.session = &prefillers[i];
            entry.tokens =
                std::span<const int>(prompts[i]).subspan(fed[i], 4);
            plan.prefills.push_back(entry);
            fed[i] += 4;
        }
        const StepResult r = engine.step(plan, workers.get());
        for (std::size_t i = 0; i < kDecode; ++i) {
            feed[i] = r.outputs[i].next_token;
            out.tokens.push_back(r.outputs[i].next_token);
            out.logits.push_back(r.outputs[i].logits);
        }
        for (const StepResult::SessionOutput& o : r.prefill_outputs) {
            out.tokens.push_back(o.next_token);
            out.logits.push_back(o.logits);
        }
    }

    SessionOptions options;
    options.kv_pool = pool;
    Session single = engine.create_session(options);
    const std::vector<int> chunk =
        model::synthetic_tokens(32, config.vocab, 90);
    StepPlan plan;
    plan.prefills.push_back({&single, chunk});
    const StepResult r = engine.step(plan, workers.get());
    out.tokens.push_back(r.prefill_outputs[0].next_token);
    out.logits.push_back(r.prefill_outputs[0].logits);

    StepPlan decode_one;
    decode_one.decode_sessions.push_back(&single);
    decode_one.decode_tokens.push_back(
        r.prefill_outputs[0].next_token);
    Session fresh = engine.create_session(options);
    const int first_token = 5;
    StepPlan prefill_one;
    prefill_one.prefills.push_back(
        {&fresh, std::span<const int>(&first_token, 1)});
    for (const StepPlan* one_row : {&decode_one, &prefill_one}) {
        const StepResult o = engine.step(*one_row, workers.get());
        const StepResult::SessionOutput& row =
            o.outputs.empty() ? o.prefill_outputs[0] : o.outputs[0];
        out.tokens.push_back(row.next_token);
        out.logits.push_back(row.logits);
    }
    return out;
}

TEST(PooledStep, MixedPlanBitIdenticalToSerialAcrossThreadCounts)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 321);
    const Engine engine(sim::make_mugi(64), transformer);

    constexpr std::size_t kSteps = 4;
    quant::BlockPool serial_pool;
    const PlanOutputs serial =
        run_mixed(engine, config, 0, kSteps, &serial_pool);
    ASSERT_FALSE(serial.tokens.empty());

    for (const std::size_t threads : {1u, 2u, 4u}) {
        quant::BlockPool pool;
        const PlanOutputs pooled =
            run_mixed(engine, config, threads, kSteps, &pool);
        EXPECT_EQ(pooled.tokens, serial.tokens)
            << threads << " threads";
        ASSERT_EQ(pooled.logits.size(), serial.logits.size());
        for (std::size_t i = 0; i < serial.logits.size(); ++i) {
            ASSERT_EQ(pooled.logits[i].size(),
                      serial.logits[i].size());
            for (std::size_t v = 0; v < serial.logits[i].size();
                 ++v) {
                // Bit-identical: pooled partitioning must never
                // change a single float.
                ASSERT_EQ(pooled.logits[i][v], serial.logits[i][v])
                    << threads << " threads, output " << i
                    << ", vocab " << v;
            }
        }
        EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
        EXPECT_EQ(pool.check_invariants(), "");
    }
    EXPECT_EQ(serial_pool.blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(serial_pool.check_invariants(), "");
}

TEST(PooledStep, WorkerStatsReportedOnlyForPooledSteps)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    const auto one_step = [&](std::size_t threads) {
        std::vector<Session> sessions;
        for (std::size_t i = 0; i < 3; ++i) {
            sessions.push_back(engine.create_session());
            engine.prefill(sessions.back(),
                           model::synthetic_tokens(
                               4, config.vocab,
                               static_cast<std::uint32_t>(7 + i)));
        }
        StepPlan plan;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            plan.decode_sessions.push_back(&sessions[i]);
            plan.decode_tokens.push_back(static_cast<int>(i + 1));
        }
        std::unique_ptr<support::ThreadPool> pool;
        if (threads > 0) {
            pool = std::make_unique<support::ThreadPool>(threads);
        }
        return engine.step(plan, pool.get());
    };

    const StepResult serial = one_step(0);
    EXPECT_EQ(serial.workers.threads, 0u);
    EXPECT_EQ(serial.workers.tasks, 0u);
    EXPECT_EQ(serial.workers.busy_fraction, 0.0);

    const StepResult pooled = one_step(2);
    EXPECT_EQ(pooled.workers.threads, 2u);
    EXPECT_GT(pooled.workers.tasks, 0u);
    EXPECT_GE(pooled.workers.busy_fraction, 0.0);
    EXPECT_LE(pooled.workers.busy_fraction, 1.0);
    EXPECT_NEAR(
        pooled.workers.busy_fraction + pooled.workers.idle_fraction,
        1.0, 1e-9);
    // The pooled and serial steps still agree on the numerics.
    ASSERT_EQ(pooled.outputs.size(), serial.outputs.size());
    for (std::size_t i = 0; i < serial.outputs.size(); ++i) {
        EXPECT_EQ(pooled.outputs[i].next_token,
                  serial.outputs[i].next_token);
        EXPECT_EQ(pooled.outputs[i].logits, serial.outputs[i].logits);
    }
}

}  // namespace
}  // namespace serve
}  // namespace mugi
