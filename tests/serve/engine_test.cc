/**
 * @file
 * The acceptance contract of the serving API: a batched Engine::step
 * over N heterogeneous sessions must reproduce N independent
 * single-request decodes -- bit-identical functional numerics and
 * exactly-preserved op counts -- while sharing the per-step weight
 * stream.
 */

#include "serve/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "quant/block_allocator.h"

namespace mugi {
namespace serve {
namespace {

/** Greedy token of @p logits. */
int
argmax(const std::vector<float>& logits)
{
    return static_cast<int>(
        std::max_element(logits.begin(), logits.end()) -
        logits.begin());
}

/** Bits of every cached K and V vector of @p session, per layer. */
std::vector<std::vector<std::uint32_t>>
kv_bits(const Session& session, std::size_t layers)
{
    std::vector<std::vector<std::uint32_t>> bits(layers);
    for (std::size_t l = 0; l < layers; ++l) {
        const quant::KvCache& cache = session.kv_cache(l);
        const units::Positions length = cache.length();
        std::vector<float> kv(2 * length.value() * cache.head_dim());
        for (std::size_t h = 0; h < cache.num_heads(); ++h) {
            cache.read_keys(h, units::Positions(0), length, kv.data());
            cache.read_values(h, units::Positions(0), length,
                              kv.data() + kv.size() / 2);
            for (const float f : kv) {
                bits[l].push_back(std::bit_cast<std::uint32_t>(f));
            }
        }
    }
    return bits;
}

TEST(MixedWorkload, OpCountsMatchIndependentDecodes)
{
    const model::ModelConfig config = model::llama2_70b();
    const std::vector<std::size_t> contexts = {128, 512, 2048, 4096};
    const model::Workload mixed =
        model::build_mixed_decode_workload(config, contexts);

    std::uint64_t macs = 0, nonlinear = 0;
    for (const std::size_t c : contexts) {
        const model::Workload single =
            model::build_decode_workload(config, 1, c);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
    }
    // Compute is preserved exactly across the batching.
    EXPECT_EQ(mixed.total_macs(), macs);
    EXPECT_EQ(mixed.total_nonlinear_elements(), nonlinear);
    EXPECT_EQ(mixed.tokens(), contexts.size());

    // Weight traffic is shared: the batch streams the WOQ weights
    // once, an independent decode streams them per request.
    const model::Workload one =
        model::build_decode_workload(config, 1, contexts[0]);
    EXPECT_EQ(mixed.total_weight_bytes(), one.total_weight_bytes());
}

TEST(MixedWorkload, DegenerateBatchMatchesSingleDecode)
{
    const model::ModelConfig config = model::llama2_7b();
    const std::size_t contexts[] = {1024};
    const model::Workload mixed =
        model::build_mixed_decode_workload(config, contexts);
    const model::Workload single =
        model::build_decode_workload(config, 1, 1024);
    EXPECT_EQ(mixed.total_macs(), single.total_macs());
    EXPECT_EQ(mixed.total_weight_bytes(),
              single.total_weight_bytes());
    EXPECT_EQ(mixed.total_nonlinear_elements(),
              single.total_nonlinear_elements());
}

TEST(EngineStep, BatchedNumericsMatchIndependentSessions)
{
    // N sessions with different context lengths stepped as one batch
    // must produce bit-identical logits to N sessions of an
    // independent engine and model, each stepped alone with the same
    // kernels.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 1234);
    const Engine engine(sim::make_mugi(64), transformer);

    // Heterogeneous contexts: prompts of different lengths.
    const std::vector<std::size_t> prompt_lens = {3, 7, 11};
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < prompt_lens.size(); ++i) {
        prompts.push_back(model::synthetic_tokens(
            prompt_lens[i], config.vocab,
            static_cast<std::uint32_t>(100 + i)));
    }

    // Engine path: prefill then batched steps.
    std::vector<Session> sessions;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        sessions.push_back(engine.create_session());
        engine.prefill(sessions.back(), prompts[i]);
    }
    // Reference path: one session per prompt on an independent
    // engine and model, with the first engine's kernels installed.
    const Engine reference(
        sim::make_mugi(64),
        std::make_shared<model::TransformerModel>(config, 1234));
    std::vector<Session> independent;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        independent.push_back(reference.create_session());
        independent[i].set_hooks(engine.default_hooks());
        reference.prefill(independent[i], prompts[i]);
    }

    std::vector<Session*> batch;
    for (Session& s : sessions) batch.push_back(&s);
    std::vector<int> tokens = {5, 17, 42};
    for (int step = 0; step < 4; ++step) {
        const StepResult result = engine.step(batch, tokens);
        ASSERT_EQ(result.outputs.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::vector<float> expected =
                reference.step(independent[i], tokens[i])
                    .outputs[0]
                    .logits;
            ASSERT_EQ(result.outputs[i].logits.size(),
                      expected.size());
            for (std::size_t v = 0; v < expected.size(); ++v) {
                // Bit-identical: same code path, same kernels.
                EXPECT_EQ(result.outputs[i].logits[v], expected[v])
                    << "session " << i << " step " << step
                    << " vocab " << v;
            }
            EXPECT_EQ(result.outputs[i].position,
                      units::Positions(
                          prompt_lens[i] +
                          static_cast<std::size_t>(step) + 1));
            tokens[i] = result.outputs[i].next_token;
        }
    }
}

TEST(EngineStep, ReportAggregatesBatchedWorkload)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    std::vector<Session> sessions;
    std::vector<Session*> batch;
    for (const std::size_t context : {255u, 1023u, 4095u}) {
        SessionOptions options;
        options.initial_context = units::Tokens(context);
        sessions.push_back(engine.create_session(options));
    }
    for (Session& s : sessions) batch.push_back(&s);

    const StepResult result = engine.step(batch);
    // One performance report for the whole step.
    EXPECT_GT(result.perf.throughput_tokens_per_s, 0.0);
    EXPECT_DOUBLE_EQ(result.perf.tokens, 3.0);
    // A step runs the performance model alone; the area, carbon and
    // event-sim models run on request through evaluate() of the same
    // workload, whose perf is the step's, bit for bit.
    const std::size_t contexts[] = {256, 1024, 4096};
    const SystemReport full = engine.evaluate(
        model::build_mixed_step_workload(config, contexts, {}));
    EXPECT_GT(full.area.total(), 0.0);
    EXPECT_GT(full.carbon.total_g_per_token(), 0.0);
    EXPECT_GT(full.event_sim.makespan_cycles, 0.0);
    EXPECT_EQ(full.perf.total_cycles, result.perf.total_cycles);
    EXPECT_EQ(full.perf.dynamic_energy_j,
              result.perf.dynamic_energy_j);
    // Positions advanced.
    EXPECT_EQ(sessions[0].position(), units::Positions(256));
    EXPECT_EQ(sessions[2].position(), units::Positions(4096));

    // Batched decode beats stepping the three requests one by one
    // (shared weight stream), at equal total tokens.
    sim::PerfAccumulator serial;
    for (const std::size_t context : {256u, 1024u, 4096u}) {
        serial.add(sim::run_workload(
            engine.design(),
            model::build_decode_workload(config, 1, context)));
    }
    EXPECT_GT(result.perf.throughput_tokens_per_s,
              serial.total().throughput_tokens_per_s);
    EXPECT_DOUBLE_EQ(serial.total().tokens, 3.0);
}

TEST(EngineStep, EmptyBatchYieldsZeroedReportNotNaN)
{
    // A drained continuous batch must not poison accumulators with
    // 0/0 rates.
    const Engine engine(sim::make_mugi(256), model::llama2_7b());
    const StepResult result = engine.step(StepPlan{});
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_EQ(result.perf.tokens, 0.0);
    EXPECT_EQ(result.perf.throughput_tokens_per_s, 0.0);

    sim::PerfAccumulator acc;
    acc.add(result.perf);
    Session session = engine.create_session();
    Session* batch[] = {&session};
    acc.add(engine.step(batch).perf);
    const sim::PerfReport total = acc.total();
    EXPECT_FALSE(std::isnan(total.throughput_tokens_per_s));
    EXPECT_GT(total.throughput_tokens_per_s, 0.0);
}

TEST(EngineStep, DuplicateSessionInBatchActsSequentially)
{
    // The scheduler never lists a session twice, but Engine::step
    // defines the behavior anyway: each occurrence is one sequential
    // step, so the duplicate batch must reproduce two back-to-back
    // single steps -- bit-identical logits and the same positions.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> prompt =
        model::synthetic_tokens(4, config.vocab, 7);

    Session dup = engine.create_session();
    engine.prefill(dup, prompt);
    Session* batch[] = {&dup, &dup};
    const int tokens[] = {3, 9};
    const StepResult batched = engine.step(batch, tokens);

    Session seq = engine.create_session();
    engine.prefill(seq, prompt);
    const StepResult first = engine.step(seq, 3);
    const StepResult second = engine.step(seq, 9);

    ASSERT_EQ(batched.outputs.size(), 2u);
    EXPECT_EQ(batched.outputs[0].position, first.outputs[0].position);
    EXPECT_EQ(batched.outputs[1].position,
              second.outputs[0].position);
    EXPECT_EQ(dup.position(), seq.position());
    for (std::size_t v = 0; v < batched.outputs[0].logits.size();
         ++v) {
        EXPECT_EQ(batched.outputs[0].logits[v],
                  first.outputs[0].logits[v]);
        EXPECT_EQ(batched.outputs[1].logits[v],
                  second.outputs[0].logits[v]);
    }

    // The modeled workload charges the second occurrence one more
    // context position, exactly like the sequential pair.
    const std::size_t base = prompt.size();
    const std::size_t contexts[] = {base + 1, base + 2};
    const model::Workload expected =
        model::build_mixed_decode_workload(config, contexts);
    EXPECT_DOUBLE_EQ(
        batched.perf.tokens,
        static_cast<double>(expected.tokens()));
    EXPECT_DOUBLE_EQ(batched.perf.total_cycles,
                     sim::run_workload(engine.design(), expected)
                         .total_cycles);
}

TEST(EngineStep, AnalyticSessionStepsPastModelMaxSeqLen)
{
    // The analytic workload model has no hard context ceiling: a
    // session stepped past the model config's max_seq_len keeps
    // producing finite, growing-cost reports (the paged-KV roadmap
    // item will bound this; the scheduler bounds it with its budget).
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    SessionOptions options;
    options.initial_context = units::Tokens(config.max_seq_len - 1);
    Session session = engine.create_session(options);

    Session* batch[] = {&session};
    double last_cycles = 0.0;
    for (int i = 0; i < 3; ++i) {
        const StepResult result = engine.step(batch);
        EXPECT_FALSE(
            std::isnan(result.perf.throughput_tokens_per_s));
        EXPECT_GT(result.perf.total_cycles, last_cycles);
        last_cycles = result.perf.total_cycles;
    }
    EXPECT_EQ(session.position(),
              units::Positions(config.max_seq_len + 2));
}

TEST(EngineStep, PrefillChunksAreBitIdenticalToFullPrefill)
{
    // The chunked-prefill invariant the scheduler relies on: however
    // a prompt is cut into chunks -- each chunk one ragged forward
    // pass of T rows -- every chunk's logits, every layer's cached K
    // and V, and the greedy continuation equal feeding the prompt one
    // token at a time.  4-position KV blocks make chunks straddle
    // block boundaries, the one-chunk schedule spans two of the
    // engine's 32-row passes, and an adopter of a donor's mid-block
    // prefix copies on write at its first append.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 5150);
    const Engine engine(sim::make_mugi(64), transformer);
    constexpr std::size_t kBlock = 4;
    // VLP windows narrower than their LUTs, so each mapping group's
    // window depends on its inputs: a softmax or activation span
    // running across rows would change bits.
    const auto narrow_kernel = [&](nonlinear::NonlinearOp op) {
        vlp::VlpConfig vlp_config =
            default_vlp_config(op, engine.design().array_rows);
        vlp_config.window_size = 2;
        return vlp::VlpApproximator(vlp_config);
    };
    const vlp::VlpApproximator exp_kernel =
        narrow_kernel(nonlinear::NonlinearOp::kExp);
    const vlp::VlpApproximator act_kernel =
        narrow_kernel(config.activation());
    const model::NonlinearHooks narrow{&exp_kernel, &act_kernel};
    const std::vector<int> prompt =
        model::synthetic_tokens(37, config.vocab, 23);
    const std::span<const int> span(prompt);

    const auto repeat = [&](std::size_t size) {
        std::vector<std::size_t> sizes;
        for (std::size_t fed = 0; fed < prompt.size(); fed += size) {
            sizes.push_back(std::min(size, prompt.size() - fed));
        }
        return sizes;
    };
    // The first, all-ones schedule is the reference.
    const std::vector<std::vector<std::size_t>> schedules = {
        repeat(1), repeat(prompt.size()), {3, 5, prompt.size() - 8},
        repeat(kBlock - 1), repeat(kBlock + 1)};

    struct Fed {
        std::vector<std::vector<std::uint32_t>> kv;
        std::vector<int> greedy;
    };
    // Feed prompt[start, ...) in chunks of @p sizes, checking each
    // chunk's logits against the reference's at its last position
    // (recording them on the reference run), then four greedy steps.
    std::vector<std::vector<float>> logits_at(prompt.size());
    const auto feed = [&](Session& session, std::size_t start,
                          const std::vector<std::size_t>& sizes,
                          const std::string& label) {
        std::vector<float> logits;
        for (const std::size_t size : sizes) {
            logits = engine.prefill_chunk(session,
                                          span.subspan(start, size));
            start += size;
            std::vector<float>& expected = logits_at[start - 1];
            if (expected.empty()) {
                expected = logits;
            }
            EXPECT_EQ(logits, expected)
                << label << ", chunk ending at " << start;
        }
        EXPECT_EQ(session.position(),
                  units::Positions(prompt.size()));
        Fed fed{kv_bits(session, config.num_layers), {}};
        int token = argmax(logits);
        for (int i = 0; i < 4; ++i) {
            token = engine.step(session, token).outputs[0].next_token;
            fed.greedy.push_back(token);
        }
        return fed;
    };

    for (const quant::KvPrecision precision :
         {quant::KvPrecision::kFloat, quant::KvPrecision::kInt4}) {
        const std::string kv =
            precision == quant::KvPrecision::kInt4 ? "int4" : "float";
        quant::BlockPool pool{units::Tokens(kBlock)};
        SessionOptions options;
        options.kv_precision = precision;
        options.kv_pool = &pool;
        std::fill(logits_at.begin(), logits_at.end(),
                  std::vector<float>{});

        const auto open = [&] {
            Session session = engine.create_session(options);
            session.set_hooks(narrow);
            return session;
        };
        std::vector<Session> sessions;
        std::vector<Fed> runs;
        for (std::size_t i = 0; i < schedules.size(); ++i) {
            sessions.push_back(open());
            const std::string label =
                kv + " schedule " + std::to_string(i);
            runs.push_back(
                feed(sessions.back(), 0, schedules[i], label));
            EXPECT_EQ(runs[i].kv, runs[0].kv) << label;
            EXPECT_EQ(runs[i].greedy, runs[0].greedy) << label;
        }

        // Adopt 6 positions (mid-block) of the one-chunk run, then
        // prefill the rest as one chunk.
        Session adopter = open();
        adopter.adopt_kv_prefix(sessions[1], units::Positions(6));
        ASSERT_GT(adopter.shared_kv_blocks(), units::Blocks(0));
        const Fed adopted =
            feed(adopter, 6, {prompt.size() - 6}, kv + " adopter");
        EXPECT_EQ(adopted.kv, runs[0].kv) << kv << " adopter";
        EXPECT_EQ(adopted.greedy, runs[0].greedy) << kv << " adopter";
    }
}

TEST(EngineStep, FusedDecodeBitIdenticalToSequentialWithMixedKv)
{
    // The fused-step contract: stacking the batch's embeddings and
    // running one projection GEMM per layer must reproduce the
    // sequential per-session path bit for bit, across sessions with
    // different KV precisions, context lengths and per-layer window
    // tunings.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 555);
    const Engine engine(sim::make_mugi(64), transformer);

    const quant::KvPrecision precisions[] = {
        quant::KvPrecision::kFloat, quant::KvPrecision::kInt4,
        quant::KvPrecision::kFloat, quant::KvPrecision::kInt4};
    const std::size_t prompt_lens[] = {2, 5, 9, 3};
    vlp::VlpConfig narrow = default_vlp_config(
        nonlinear::NonlinearOp::kExp, engine.design().array_rows);
    narrow.window_size = 4;
    const vlp::VlpApproximator window(narrow);

    const auto make_batch = [&] {
        std::vector<Session> sessions;
        for (std::size_t i = 0; i < 4; ++i) {
            SessionOptions options;
            options.kv_precision = precisions[i];
            sessions.push_back(engine.create_session(options));
            engine.prefill(sessions.back(),
                           model::synthetic_tokens(
                               prompt_lens[i], config.vocab,
                               static_cast<std::uint32_t>(70 + i)));
        }
        // A per-layer retune on one session must stay per-row.
        model::NonlinearHooks hooks = engine.default_hooks();
        hooks.softmax_exp = &window;
        sessions[1].set_layer_hooks(0, hooks);
        return sessions;
    };

    std::vector<Session> fused_sessions = make_batch();
    std::vector<Session> seq_sessions = make_batch();
    std::vector<int> fused_tokens = {3, 11, 25, 40};
    std::vector<int> seq_tokens = fused_tokens;
    for (int step = 0; step < 3; ++step) {
        StepPlan fused_plan;
        for (std::size_t i = 0; i < 4; ++i) {
            fused_plan.decode_sessions.push_back(&fused_sessions[i]);
        }
        fused_plan.decode_tokens = fused_tokens;
        const StepResult fused = engine.step(fused_plan);
        // The sequential side: each session stepped alone.
        for (std::size_t i = 0; i < 4; ++i) {
            const StepResult seq =
                engine.step(seq_sessions[i], seq_tokens[i]);
            EXPECT_EQ(fused.outputs[i].position,
                      seq.outputs[0].position);
            ASSERT_EQ(fused.outputs[i].logits.size(),
                      seq.outputs[0].logits.size());
            for (std::size_t v = 0; v < seq.outputs[0].logits.size();
                 ++v) {
                EXPECT_EQ(fused.outputs[i].logits[v],
                          seq.outputs[0].logits[v])
                    << "session " << i << " step " << step
                    << " vocab " << v;
            }
            fused_tokens[i] = fused.outputs[i].next_token;
            seq_tokens[i] = seq.outputs[0].next_token;
        }
        EXPECT_EQ(fused_tokens, seq_tokens) << "step " << step;
    }
}

TEST(EngineStep, FusedBatchOfOneMatchesSequential)
{
    // A single-session plan must produce the logits of the session
    // stepped alone.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 77);
    const Engine engine(sim::make_mugi(64), transformer);
    Session a = engine.create_session();
    Session b = engine.create_session();
    engine.prefill(a, std::vector<int>{1, 2});
    engine.prefill(b, std::vector<int>{1, 2});

    StepPlan fused_plan;
    fused_plan.decode_sessions = {&a};
    fused_plan.decode_tokens = {5};
    const StepResult fused = engine.step(fused_plan);
    const StepResult seq = engine.step(b, 5);
    ASSERT_EQ(fused.outputs[0].logits.size(),
              seq.outputs[0].logits.size());
    for (std::size_t v = 0; v < seq.outputs[0].logits.size(); ++v) {
        EXPECT_EQ(fused.outputs[0].logits[v],
                  seq.outputs[0].logits[v]);
    }
}

TEST(EngineStep, FusedDecodeTracksPostConstructionWeightMutation)
{
    // examples/llm_inference applies WOQ to the transformer *after*
    // constructing the Engine.  The fused path must read the live
    // weights (no load-time snapshot), so a fused batch and a session
    // stepped alone both see the mutation and stay bit-identical.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const Engine engine(sim::make_mugi(64), transformer);
    Session fused_s = engine.create_session();
    Session neighbour = engine.create_session();
    Session seq_s = engine.create_session();
    const std::vector<int> prompt =
        model::synthetic_tokens(4, config.vocab, 7);
    engine.prefill(fused_s, prompt);
    engine.prefill(neighbour, prompt);
    engine.prefill(seq_s, prompt);

    transformer->apply_woq(32);  // INT4 weights from here on.

    StepPlan fused_plan;
    fused_plan.decode_sessions = {&fused_s, &neighbour};
    fused_plan.decode_tokens = {9, 2};
    const StepResult fused = engine.step(fused_plan);
    const StepResult seq = engine.step(seq_s, 9);
    ASSERT_EQ(fused.outputs[0].logits.size(),
              seq.outputs[0].logits.size());
    for (std::size_t v = 0; v < seq.outputs[0].logits.size(); ++v) {
        EXPECT_EQ(fused.outputs[0].logits[v],
                  seq.outputs[0].logits[v])
            << v;
    }
}

TEST(EngineSession, DefaultConfigsMatchPaperWindows)
{
    // Softmax exp: profiled [-3, 4] band; SiLU/GELU: [-6, 1]
    // (Fig. 4); one mapping per array load.
    for (const nonlinear::NonlinearOp op :
         {nonlinear::NonlinearOp::kExp, nonlinear::NonlinearOp::kSilu,
          nonlinear::NonlinearOp::kGelu}) {
        const vlp::VlpConfig config = default_vlp_config(op, 256);
        const bool exp = op == nonlinear::NonlinearOp::kExp;
        EXPECT_EQ(config.op, op);
        EXPECT_EQ(config.lut_min_exp, exp ? -3 : -6);
        EXPECT_EQ(config.lut_max_exp, exp ? 4 : 1);
        EXPECT_EQ(config.mapping_rows, 256u);
    }
}

TEST(EngineSession, NewSessionsStartOnDefaultHooks)
{
    // Every session runs the engine's one kernel per op, built from
    // default_vlp_config at the design's array height.
    const model::ModelConfig config =
        model::whisper_tiny().scaled_for_eval(2, 32, 64);  // GELU
    const Engine engine(
        sim::make_mugi(64),
        std::make_shared<model::TransformerModel>(config, 55));
    const model::NonlinearHooks defaults = engine.default_hooks();
    using Vlp = vlp::VlpApproximator;
    const auto* exp_kernel =
        dynamic_cast<const Vlp*>(defaults.softmax_exp);
    const auto* act_kernel =
        dynamic_cast<const Vlp*>(defaults.activation);
    ASSERT_NE(exp_kernel, nullptr);
    ASSERT_NE(act_kernel, nullptr);
    EXPECT_EQ(exp_kernel->op(), nonlinear::NonlinearOp::kExp);
    EXPECT_EQ(exp_kernel->config().lut_max_exp, 4);
    EXPECT_EQ(exp_kernel->config().mapping_rows, 64u);
    EXPECT_EQ(act_kernel->op(), nonlinear::NonlinearOp::kGelu);
    EXPECT_EQ(act_kernel->config().lut_max_exp, 1);
    EXPECT_EQ(act_kernel->config().mapping_rows, 64u);

    for (int i = 0; i < 3; ++i) {
        const Session session = engine.create_session();
        for (std::size_t l = 0; l < config.num_layers; ++l) {
            EXPECT_EQ(session.hooks_for(l).softmax_exp,
                      defaults.softmax_exp);
            EXPECT_EQ(session.hooks_for(l).activation,
                      defaults.activation);
        }
    }
    // A model-less engine's default activation is SiLU.
    const Engine bare(sim::make_mugi(64));
    EXPECT_EQ(bare.default_hooks().activation->op(),
              nonlinear::NonlinearOp::kSilu);
}

TEST(EngineStep, ConcurrentDisjointBatchesAreSafe)
{
    // The engine is immutable: disjoint session sets may step
    // concurrently through one shared instance.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    constexpr int kThreads = 4;
    constexpr int kSteps = 8;
    std::vector<std::vector<float>> last_logits(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Session session = engine.create_session();
            int token = 7;  // Same stream in every thread.
            for (int s = 0; s < kSteps; ++s) {
                const StepResult result = engine.step(session, token);
                token = result.outputs[0].next_token;
                last_logits[t] = result.outputs[0].logits;
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    // Identical inputs through shared kernels: identical outputs.
    for (int t = 1; t < kThreads; ++t) {
        ASSERT_EQ(last_logits[t].size(), last_logits[0].size());
        for (std::size_t v = 0; v < last_logits[0].size(); ++v) {
            EXPECT_EQ(last_logits[t][v], last_logits[0][v]);
        }
    }
}

TEST(EngineSession, PerLayerWindowTuningIsPerSession)
{
    // Two concurrent sessions, one with a deliberately bad softmax
    // window on layer 0: outputs must differ from the default
    // session while the default matches an untuned reference.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 4321);
    const Engine engine(sim::make_mugi(64), transformer);

    vlp::VlpConfig bad = default_vlp_config(
        nonlinear::NonlinearOp::kExp, engine.design().array_rows);
    bad.lut_max_exp = -8;  // Far below the profiled band.
    bad.lut_min_exp = -15;
    const vlp::VlpApproximator bad_kernel(bad);

    Session tuned = engine.create_session();
    Session plain = engine.create_session();
    model::NonlinearHooks bad_hooks = engine.default_hooks();
    bad_hooks.softmax_exp = &bad_kernel;
    tuned.set_layer_hooks(0, bad_hooks);

    // Build context first: the window only matters once softmax rows
    // span multiple cached positions.
    const std::vector<int> prompt =
        model::synthetic_tokens(5, config.vocab, 17);
    engine.prefill(tuned, prompt);
    engine.prefill(plain, prompt);

    Session* batch[] = {&tuned, &plain};
    const int tokens[] = {3, 3};
    const StepResult result = engine.step(batch, tokens);

    // Untuned reference: an independent engine and model, one
    // session with the default kernels installed, stepped alone.
    const Engine reference(
        sim::make_mugi(64),
        std::make_shared<model::TransformerModel>(config, 4321));
    Session ref_session = reference.create_session();
    ref_session.set_hooks(engine.default_hooks());
    reference.prefill(ref_session, prompt);
    const std::vector<float> expected =
        reference.step(ref_session, 3).outputs[0].logits;

    bool differs = false;
    for (std::size_t v = 0; v < expected.size(); ++v) {
        EXPECT_EQ(result.outputs[1].logits[v], expected[v]);
        differs |= result.outputs[0].logits[v] != expected[v];
    }
    EXPECT_TRUE(differs)
        << "bad layer-0 window must perturb the tuned session";
}

}  // namespace
}  // namespace serve
}  // namespace mugi
