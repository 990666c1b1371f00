/**
 * @file
 * End-to-end LLM inference through the Mugi serving stack: a
 * Llama-style transformer with
 *   - VLP-approximated softmax and SiLU (Sec. 3),
 *   - WOQ INT4 weights (Sec. 2.3.2),
 *   - KVQ INT4 KV cache on the decode path (Sec. 2.3.3),
 * compared against the exact FP32 model.  The decode runs through
 * serve::Engine with two concurrent sessions -- one float-cache, one
 * KVQ -- stepped as a single batch, demonstrating that batched
 * serving reproduces the per-request numerics.
 *
 * Build & run:  ./build/examples/llm_inference
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "model/accuracy.h"
#include "serve/engine.h"
#include "vlp/vlp_approximator.h"

using namespace mugi;

int
main()
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(/*max_layers=*/4,
                                            /*d_model_eval=*/64,
                                            /*vocab_eval=*/256);
    std::printf("Model: %s (%zu layers, d=%zu, GQA group %zu)\n",
                config.name.c_str(), config.num_layers, config.d_model,
                config.gqa_group());
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const serve::Engine engine(sim::make_mugi(256), transformer);

    // --- Accuracy with the full Mugi numerical stack. ---
    model::EvalOptions options;
    options.num_sequences = 3;
    options.seq_len = 24;
    const std::vector<model::TeacherPass> teacher =
        model::teacher_passes(*transformer, options);
    const double base_ppl =
        model::evaluate_base(*transformer, teacher).perplexity;

    // The same kernels every session deploys by default, the
    // engine's one per op (softmax exp over [-3, 4], SiLU over
    // [-6, 1]).
    const model::NonlinearHooks hooks = engine.default_hooks();
    const double vlp_ppl =
        model::evaluate_against_exact(*transformer, hooks, teacher)
            .perplexity;

    // INT4 weights from here on, scored against the exact
    // nonlinearities on the same INT4 weights.
    transformer->apply_woq(32);
    const double woq_ppl =
        model::evaluate_against_exact(
            *transformer, hooks,
            model::teacher_passes(*transformer, options))
            .perplexity;

    std::printf("PPL vs exact teacher: base %.4f | +VLP nonlinear "
                "%.4f | +WOQ INT4 %.4f\n",
                base_ppl, vlp_ppl, woq_ppl);

    // --- Greedy decode: one engine, two sessions batched per step. ---
    serve::SessionOptions fp_opts;
    fp_opts.kv_precision = quant::KvPrecision::kFloat;
    serve::Session fp = engine.create_session(fp_opts);
    serve::Session q4 = engine.create_session();  // KVQ INT4 default.

    const std::vector<int> prompt =
        model::synthetic_tokens(12, config.vocab, 77);

    std::printf("greedy decode   :");
    int tok_fp = prompt[0], tok_q4 = prompt[0];
    int agree = 0;
    const int steps = 24;
    serve::Session* batch[2] = {&fp, &q4};
    for (int t = 0; t < steps; ++t) {
        const bool in_prompt =
            t + 1 < static_cast<int>(prompt.size());
        const int tokens[2] = {tok_fp, tok_q4};
        const serve::StepResult result = engine.step(batch, tokens);
        const int next_fp = in_prompt ? prompt[t + 1]
                                      : result.outputs[0].next_token;
        const int next_q4 = in_prompt ? prompt[t + 1]
                                      : result.outputs[1].next_token;
        if (!in_prompt) {
            std::printf(" %d%s", next_fp,
                        next_fp == next_q4 ? "" : "*");
            agree += (next_fp == next_q4);
        }
        tok_fp = next_fp;
        tok_q4 = next_q4;
    }
    const int generated = steps - static_cast<int>(prompt.size()) + 1;
    std::printf("\nKVQ agreement with float cache: %d/%d tokens "
                "(* = divergence)\n",
                agree, generated);
    std::printf("KV cache bytes: float %zu vs KVQ INT4 %zu (%.2fx "
                "smaller)\n",
                fp.kv_bytes().value(), q4.kv_bytes().value(),
                static_cast<double>(fp.kv_bytes().value()) /
                    static_cast<double>(q4.kv_bytes().value()));
    return 0;
}
