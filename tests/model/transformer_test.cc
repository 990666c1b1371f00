#include "model/transformer.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/profiler.h"
#include "nonlinear/taylor.h"
#include "serve/engine.h"
#include "support/rng.h"
#include "vlp/vlp_approximator.h"

namespace mugi {
namespace model {
namespace {

ModelConfig
tiny_llama()
{
    return llama2_7b().scaled_for_eval(2, 32, 64);
}

ModelConfig
tiny_whisper()
{
    return whisper_tiny().scaled_for_eval(2, 32, 64);
}

TEST(Transformer, ForwardShapes)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel model(config, 7);
    const std::vector<int> tokens = {1, 5, 9, 2};
    const support::MatrixF logits = model.forward_tokens(tokens);
    EXPECT_EQ(logits.rows(), 4u);
    EXPECT_EQ(logits.cols(), config.vocab);
    for (const float v : logits.data()) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Transformer, DeterministicForSameSeed)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel a(config, 42);
    const TransformerModel b(config, 42);
    const std::vector<int> tokens = {3, 1, 4, 1, 5};
    EXPECT_EQ(a.forward_tokens(tokens).data(),
              b.forward_tokens(tokens).data());
}

TEST(Transformer, DifferentSeedsDiffer)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel a(config, 1);
    const TransformerModel b(config, 2);
    const std::vector<int> tokens = {3, 1, 4};
    EXPECT_NE(a.forward_tokens(tokens).data(),
              b.forward_tokens(tokens).data());
}

TEST(Transformer, CausalityHolds)
{
    // Changing a later token must not affect earlier logits in a
    // causal (llama) model.
    const ModelConfig config = tiny_llama();
    const TransformerModel model(config, 11);
    const std::vector<int> t1 = {2, 7, 1, 9};
    const std::vector<int> t2 = {2, 7, 1, 30};
    const support::MatrixF l1 = model.forward_tokens(t1);
    const support::MatrixF l2 = model.forward_tokens(t2);
    for (std::size_t t = 0; t < 3; ++t) {
        for (std::size_t v = 0; v < config.vocab; ++v) {
            EXPECT_EQ(l1.at(t, v), l2.at(t, v)) << t << "," << v;
        }
    }
    // The final position must differ (different input).
    bool differs = false;
    for (std::size_t v = 0; v < config.vocab; ++v) {
        if (l1.at(3, v) != l2.at(3, v)) differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Transformer, BidirectionalFamilySeesFuture)
{
    const ModelConfig config = tiny_whisper();
    const TransformerModel model(config, 11);
    const std::vector<int> t1 = {2, 7, 1, 9};
    const std::vector<int> t2 = {2, 7, 1, 30};
    const support::MatrixF l1 = model.forward_tokens(t1);
    const support::MatrixF l2 = model.forward_tokens(t2);
    bool first_position_differs = false;
    for (std::size_t v = 0; v < config.vocab; ++v) {
        if (l1.at(0, v) != l2.at(0, v)) first_position_differs = true;
    }
    EXPECT_TRUE(first_position_differs);
}

/** A serving session with @p precision KV and exact hooks. */
serve::Session
exact_session(const serve::Engine& engine,
              quant::KvPrecision precision)
{
    serve::SessionOptions options;
    options.kv_precision = precision;
    serve::Session session = engine.create_session(options);
    session.set_hooks(NonlinearHooks{});
    return session;
}

TEST(Transformer, DecodeMatchesFullForward)
{
    // Incremental KV-cached decode through the serving engine must
    // reproduce the full forward pass logits at every position, bit
    // for bit (float cache), with exact, Taylor and VLP softmax: a
    // causal row of the full pass normalizes only its prefix, as a
    // decode step does, so no masked score reaches the approximator
    // (Taylor's series turns one into NaN).  Approximate activations
    // stay out: forward_tokens applies them over one [T, d_ff] span,
    // so a windowed approximator sees other groups than in decode.
    const ModelConfig config = tiny_llama();
    const auto model =
        std::make_shared<const TransformerModel>(config, 23);
    const std::vector<int> tokens = {4, 8, 15, 16, 23};
    const serve::Engine engine(sim::make_mugi(64), model);
    const nonlinear::TaylorApproximator taylor(
        {nonlinear::NonlinearOp::kExp, 9, -3.0});
    const auto vlp =
        vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    const struct {
        const char* name;
        NonlinearHooks hooks;
    } cases[] = {{"exact", {}},
                 {"taylor", {&taylor, nullptr}},
                 {"vlp", {vlp.get(), nullptr}}};
    for (const auto& c : cases) {
        const std::vector<NonlinearHooks> layer_hooks(
            config.num_layers, c.hooks);
        const support::MatrixF full =
            model->forward_tokens(tokens, layer_hooks);
        serve::Session session =
            exact_session(engine, quant::KvPrecision::kFloat);
        session.set_hooks(c.hooks);
        std::size_t differing = 0;
        for (std::size_t t = 0; t < tokens.size(); ++t) {
            const std::vector<float> logits =
                engine.step(session, tokens[t]).outputs[0].logits;
            ASSERT_EQ(logits.size(), config.vocab);
            for (std::size_t v = 0; v < config.vocab; ++v) {
                differing += !(logits[v] == full.at(t, v));
            }
        }
        EXPECT_EQ(differing, 0u)
            << c.name << ": " << differing << " of "
            << tokens.size() * config.vocab << " logits differ";
    }
}

TEST(Transformer, BatchedDecodeLayerMatchesSequentialPerRow)
{
    // decode_layer_batch must reproduce decode_layer row by row for
    // both families: gated/RoPE/RMSNorm (llama) and plain
    // FFN/LayerNorm without RoPE (whisper), at heterogeneous
    // positions and mixed KV precisions.
    for (const ModelConfig& config : {tiny_llama(), tiny_whisper()}) {
        const TransformerModel model(config, 99);
        const std::size_t batch = 3;
        const NonlinearHooks hooks{};
        const quant::KvPrecision precisions[] = {
            quant::KvPrecision::kFloat, quant::KvPrecision::kInt4,
            quant::KvPrecision::kFloat};

        // Warm each lane's layer-0 cache to a different depth.
        std::vector<quant::KvCache> batched_caches;
        std::vector<quant::KvCache> seq_caches;
        for (std::size_t i = 0; i < batch; ++i) {
            batched_caches.emplace_back(config.num_kv_heads,
                                        config.head_dim(),
                                        precisions[i]);
            seq_caches.emplace_back(config.num_kv_heads,
                                    config.head_dim(), precisions[i]);
        }
        support::MatrixF x(batch, config.d_model);
        std::mt19937 rng(1234);
        support::fill_gaussian(x, rng, 0.0f, 1.0f);
        for (std::size_t i = 0; i < batch; ++i) {
            for (std::size_t warm = 0; warm < i + 1; ++warm) {
                support::MatrixF one(1, config.d_model);
                support::fill_gaussian(one, rng, 0.0f, 1.0f);
                // Same warm stream into both twins' caches.
                model.decode_layer(0, one, batched_caches[i], hooks);
                model.decode_layer(0, one, seq_caches[i], hooks);
            }
        }

        std::vector<quant::KvCache*> cache_ptrs;
        std::vector<const NonlinearHooks*> hook_ptrs;
        for (std::size_t i = 0; i < batch; ++i) {
            cache_ptrs.push_back(&batched_caches[i]);
            hook_ptrs.push_back(&hooks);
        }
        const support::MatrixF batched =
            model.decode_layer_batch(0, x, cache_ptrs, hook_ptrs);

        for (std::size_t i = 0; i < batch; ++i) {
            support::MatrixF row(1, config.d_model);
            for (std::size_t c = 0; c < config.d_model; ++c) {
                row.at(0, c) = x.at(i, c);
            }
            const support::MatrixF expected =
                model.decode_layer(0, row, seq_caches[i], hooks);
            for (std::size_t c = 0; c < config.d_model; ++c) {
                EXPECT_EQ(batched.at(i, c), expected.at(0, c))
                    << config.name << " row " << i << " col " << c;
            }
        }
    }
}

TEST(Transformer, BatchedDecodeSeesLiveWeightMutations)
{
    // The batched path reads the layer's weights at call time, so a
    // post-construction apply_woq (as examples/llm_inference does
    // after building its Engine) affects fused and sequential decode
    // identically.
    const ModelConfig config = tiny_llama();
    TransformerModel model(config, 7);
    quant::KvCache batched_cache(config.num_kv_heads,
                                 config.head_dim(),
                                 quant::KvPrecision::kFloat);
    quant::KvCache seq_cache(config.num_kv_heads, config.head_dim(),
                             quant::KvPrecision::kFloat);
    model.apply_woq(16);

    support::MatrixF x(1, config.d_model);
    std::mt19937 rng(55);
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    const NonlinearHooks hooks{};
    quant::KvCache* caches[] = {&batched_cache};
    const NonlinearHooks* hook_ptrs[] = {&hooks};
    const support::MatrixF batched =
        model.decode_layer_batch(0, x, caches, hook_ptrs);
    const support::MatrixF expected =
        model.decode_layer(0, x, seq_cache, hooks);
    EXPECT_TRUE(batched == expected);
}

TEST(Transformer, KvqDecodeStaysClose)
{
    const ModelConfig config = tiny_llama();
    const serve::Engine engine(
        sim::make_mugi(64),
        std::make_shared<const TransformerModel>(config, 29));
    const std::vector<int> tokens = {4, 8, 15, 16, 23, 42};

    serve::Session exact =
        exact_session(engine, quant::KvPrecision::kFloat);
    serve::Session kvq =
        exact_session(engine, quant::KvPrecision::kInt4);
    for (const int t : tokens) {
        const auto le = engine.step(exact, t).outputs[0].logits;
        const auto lq = engine.step(kvq, t).outputs[0].logits;
        // KVQ perturbs logits but must stay in the same regime
        // (Sec. 2.3.3: ~0.02 PPL increase at model scale).
        double dot = 0.0, ne = 0.0, nq = 0.0;
        for (std::size_t v = 0; v < le.size(); ++v) {
            dot += le[v] * lq[v];
            ne += le[v] * le[v];
            nq += lq[v] * lq[v];
        }
        EXPECT_GT(dot / std::sqrt(ne * nq), 0.98);
    }
    // Compression under the exact device accounting: 4*hd bytes
    // (float) vs (hd+1)/2 + 2 bytes (INT4 + scale) per vector; with
    // hd = 8 that is 32 vs 6 bytes.  Both caches page identically
    // (same length, same block count), so the ratio is exact.
    const std::size_t hd = config.head_dim();
    const double expected_ratio =
        static_cast<double>(sizeof(float) * hd) /
        static_cast<double>((hd + 1) / 2 + 2);
    const double ratio =
        static_cast<double>(exact.kv_bytes().value()) /
        static_cast<double>(kvq.kv_bytes().value());
    EXPECT_NEAR(ratio, expected_ratio, 0.01);
}

TEST(Transformer, WoqPerturbsButPreservesScale)
{
    const ModelConfig config = tiny_llama();
    TransformerModel model(config, 31);
    const std::vector<int> tokens = {1, 2, 3, 4};
    const support::MatrixF before = model.forward_tokens(tokens);
    model.apply_woq(32);
    const support::MatrixF after = model.forward_tokens(tokens);
    double dot = 0.0, nb = 0.0, na = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        dot += before.data()[i] * after.data()[i];
        nb += before.data()[i] * before.data()[i];
        na += after.data()[i] * after.data()[i];
    }
    EXPECT_GT(dot / std::sqrt(nb * na), 0.95);
    EXPECT_NE(before.data(), after.data());
}

/** Start and length of every weight matrix, in draw order. */
std::vector<std::pair<const float*, std::size_t>>
weight_tensors(const TransformerModel& model)
{
    const ModelConfig& config = model.config();
    std::vector<std::pair<const float*, std::size_t>> tensors = {
        {model.embedding(0).data(), config.vocab * config.d_model},
        {model.lm_head().row_data(0), model.lm_head().size()}};
    for (std::size_t l = 0; l < model.num_layers(); ++l) {
        const LayerWeights& w = model.layer(l);
        for (const support::MatrixF* m :
             {&w.wq, &w.wk, &w.wv, &w.wo, &w.w_gate, &w.w_up,
              &w.w_down}) {
            if (m->size() > 0) {
                tensors.emplace_back(m->row_data(0), m->size());
            }
        }
    }
    return tensors;
}

/** The [start, end) of the mapping holding @p p (/proc/self/maps). */
std::pair<std::uintptr_t, std::uintptr_t>
mapping_of(const float* p)
{
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        // Each line starts "start-end", in hex.
        std::istringstream fields(line);
        std::uintptr_t start = 0;
        std::uintptr_t end = 0;
        char dash = 0;
        fields >> std::hex >> start >> dash >> end;
        if (start <= at && at < end) {
            return {start, end};
        }
    }
    ADD_FAILURE() << "no mapping holds " << p;
    return {0, 0};
}

TEST(Transformer, WeightsLieInOneBlockInDrawOrder)
{
    constexpr std::size_t kHugePage = std::size_t{2} << 20;
    const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const auto round_up = [](std::size_t n, std::size_t unit) {
        return (n + unit - 1) / unit * unit;
    };
    // Gated (llama) and ungated (whisper) FFNs.  The small blocks end
    // far short of a 2 MB boundary and map whole pages; the serving
    // benchmark's ends 8 KB short of one and maps whole huge pages.
    const struct {
        ModelConfig config;
        bool whole_huge_pages;
    } cases[] = {{tiny_llama(), false},
                 {tiny_whisper(), false},
                 {llama2_7b().scaled_for_eval(4, 256, 1024), true}};
    for (const auto& [config, whole_huge_pages] : cases) {
        SCOPED_TRACE(config.name);
        TransformerModel model(config, 5);
        const auto tensors = weight_tensors(model);
        ASSERT_EQ(tensors.size(),
                  2 + config.num_layers *
                          (config.gated_ffn() ? 7u : 6u));
        const auto address = [](const float* p) {
            return reinterpret_cast<std::uintptr_t>(p);
        };
        // The block starts on a 2 MB (huge page) boundary, and each
        // tensor at the first 64-byte boundary past the one before.
        EXPECT_EQ(address(tensors[0].first) % kHugePage, 0u);
        for (std::size_t i = 1; i < tensors.size(); ++i) {
            const std::uintptr_t end =
                address(tensors[i - 1].first + tensors[i - 1].second);
            EXPECT_EQ(address(tensors[i].first), (end + 63) / 64 * 64)
                << "tensor " << i;
        }
        // It spans whole pages, and whole huge pages when its part
        // past the last 2 MB boundary is at least half a huge page.
        const std::size_t used =
            address(tensors.back().first + tensors.back().second) -
            address(tensors[0].first);
        EXPECT_EQ(round_up(used, page) % kHugePage >= kHugePage / 2,
                  whole_huge_pages);
        const auto [start, end] = mapping_of(tensors[0].first);
        EXPECT_EQ(start, address(tensors[0].first));
        EXPECT_EQ(end - start, whole_huge_pages
                                   ? round_up(used, kHugePage)
                                   : round_up(used, page));
        // WOQ rewrites the weights where they lie.
        model.apply_woq(32);
        EXPECT_EQ(weight_tensors(model), tensors);
    }
}

TEST(Transformer, HooksChangeSoftmaxPath)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel model(config, 37);
    const std::vector<int> tokens = {9, 8, 7, 6, 5};
    const support::MatrixF exact = model.forward_tokens(tokens);

    const auto vlp =
        vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    NonlinearHooks hooks;
    hooks.softmax_exp = vlp.get();
    const std::vector<NonlinearHooks> table(config.num_layers, hooks);
    const support::MatrixF approx =
        model.forward_tokens(tokens, table);
    EXPECT_NE(exact.data(), approx.data());
    // Still well-behaved.
    for (const float v : approx.data()) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Transformer, PerLayerHookTable)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel model(config, 41);
    const std::vector<int> tokens = {9, 8, 7};

    const auto vlp =
        vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    std::vector<NonlinearHooks> table(config.num_layers);
    const support::MatrixF exact = model.forward_tokens(tokens);
    // An all-exact table runs what the empty one does.
    const support::MatrixF all_exact =
        model.forward_tokens(tokens, table);
    EXPECT_EQ(exact.data(), all_exact.data());
    // Layer 0 approximate, the rest exact, differs from all-exact.
    table[0].softmax_exp = vlp.get();
    const support::MatrixF mixed =
        model.forward_tokens(tokens, table);
    EXPECT_NE(exact.data(), mixed.data());
}

TEST(Transformer, CaptureSeesBothOps)
{
    const ModelConfig config = tiny_llama();
    const TransformerModel model(config, 43);
    NonlinearProfiler profiler;
    const std::vector<int> tokens = {1, 2, 3, 4, 5, 6};
    const support::MatrixF logits = model.forward_tokens(tokens);
    const support::MatrixF captured =
        model.forward_tokens(tokens, {}, profiler.capture());
    // Capturing observes the pass without changing it.
    EXPECT_EQ(captured.data(), logits.data());
    for (const std::size_t layer : {std::size_t{0},
                                    config.num_layers - 1}) {
        EXPECT_TRUE(
            profiler.has_site(nonlinear::NonlinearOp::kExp, layer));
        EXPECT_TRUE(
            profiler.has_site(nonlinear::NonlinearOp::kSilu, layer));
    }
    // Softmax capture is max-subtracted: all values <= 0.
    const SiteProfile& sm =
        profiler.site(nonlinear::NonlinearOp::kExp, 0);
    EXPECT_GT(sm.values.total(), 0u);
    // All mass at or below zero; bins have width 0.25, so the first
    // strictly-positive bin center is 0.375.
    EXPECT_EQ(sm.values.fraction_in(0.3, 100.0), 0.0);
}

TEST(Transformer, GqaSharesKvHeads)
{
    // A GQA model (fewer KV heads) must still run and be causal.
    ModelConfig config = llama2_70b().scaled_for_eval(2, 32, 64);
    ASSERT_GT(config.gqa_group(), 1u);
    const TransformerModel model(config, 47);
    const std::vector<int> tokens = {5, 6, 7, 8};
    const support::MatrixF logits = model.forward_tokens(tokens);
    for (const float v : logits.data()) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
