#ifndef MUGI_MODEL_TRANSFORMER_H_
#define MUGI_MODEL_TRANSFORMER_H_

/**
 * @file
 * The from-scratch transformer substrate used for the accuracy and
 * profiling studies (Sec. 3, 5.1): a faithful pre-norm transformer
 * with GQA, RoPE, SwiGLU/GELU FFN, causal or bidirectional attention,
 * pluggable nonlinear implementations (global or per layer, the hook
 * the Fig. 6/7 sweeps use), a profiling capture hook (Fig. 4), WOQ
 * fake-quantization of the weights, and a KV-cached decode path with
 * optional KVQ.
 */

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "model/config.h"
#include "model/ops.h"
#include "nonlinear/approximator.h"
#include "quant/kv_cache.h"
#include "support/matrix.h"

namespace mugi {
namespace model {

/** Which nonlinear implementations a forward pass should use. */
struct NonlinearHooks {
    /** exp used inside attention softmax; nullptr = exact. */
    const nonlinear::NonlinearApproximator* softmax_exp = nullptr;
    /** FFN activation (SiLU/GELU); nullptr = exact. */
    const nonlinear::NonlinearApproximator* activation = nullptr;
};

/** Profiling callback: (op, layer, raw nonlinear inputs). */
using CaptureFn = std::function<void(nonlinear::NonlinearOp, std::size_t,
                                     std::span<const float>)>;

/** Weights of one transformer layer. */
struct LayerWeights {
    support::MatrixF wq;      ///< [d, d]
    support::MatrixF wk;      ///< [d, kv_dim]
    support::MatrixF wv;      ///< [d, kv_dim]
    support::MatrixF wo;      ///< [d, d]
    support::MatrixF w_gate;  ///< [d, ff] (gated FFN only)
    support::MatrixF w_up;    ///< [d, ff]
    support::MatrixF w_down;  ///< [ff, d]
    std::vector<float> norm1_gain, norm1_bias;
    std::vector<float> norm2_gain, norm2_bias;
};

/** A complete transformer model with synthetic weights. */
class TransformerModel {
  public:
    /**
     * Build a model with seeded Gaussian weights (residual
     * projections scaled by 1/sqrt(2 * layers) as in GPT-2-style
     * init, which keeps activations in a realistic range).  The
     * weights are a pure function of (config, seed), all drawn here
     * before the constructor returns (DESIGN.md, "Model weights").
     */
    TransformerModel(const ModelConfig& config, std::uint32_t seed);

    const ModelConfig& config() const { return config_; }

    /** Set the hooks used for every layer. */
    void set_hooks(const NonlinearHooks& hooks) { global_hooks_ = hooks; }

    /** Per-layer override (Fig. 7 per-layer tuning); nullopt = global. */
    void set_layer_hooks(std::size_t layer,
                         std::optional<NonlinearHooks> hooks);

    /**
     * Master switch: when disabled, every layer runs exact
     * nonlinearities regardless of installed hooks.  The accuracy
     * harness uses this for the teacher pass so per-layer tuning
     * state cannot leak into the reference.
     */
    void set_hooks_enabled(bool enabled) { hooks_enabled_ = enabled; }
    bool hooks_enabled() const { return hooks_enabled_; }

    /** Install a profiling capture (Fig. 4); empty disables. */
    void set_capture(CaptureFn capture) { capture_ = std::move(capture); }

    /**
     * Fake-quantize every weight matrix through INT4 group
     * quantization (WOQ, Sec. 2.3.2): weights are replaced by their
     * dequantized values, so the forward pass sees exactly the
     * precision the INT4 datapath would.
     */
    void apply_woq(std::size_t group_size);

    /**
     * Full-sequence forward pass over token ids; returns next-token
     * logits per position, shape [T, vocab].
     */
    support::MatrixF forward_tokens(std::span<const int> tokens) const;

    /**
     * Forward pass over raw embeddings (vision-style input), shape
     * [T, d_model]; returns logits per position.
     */
    support::MatrixF forward_embeddings(
        const support::MatrixF& embeddings) const;

    /** Embedding row for a token (used by the decode path). */
    std::span<const float> embedding(int token) const;

    std::size_t num_layers() const { return layers_.size(); }
    const LayerWeights& layer(std::size_t i) const { return layers_[i]; }
    LayerWeights& mutable_layer(std::size_t i) { return layers_[i]; }

    /**
     * One KV-cached layer step for a single row: decode_layer_batch
     * over the [1, d] input @p x with one cache and the caller's
     * hooks (each serving request carries its own per-layer window
     * tuning, so the shared model stays immutable).
     */
    support::MatrixF decode_layer(std::size_t layer_idx,
                                  const support::MatrixF& x,
                                  quant::KvCache& cache,
                                  const NonlinearHooks& hooks) const;

    /**
     * The KV-cached layer step over ragged rows: row r of @p x
     * ([rows, d]) is the next token of the context in @p caches[r],
     * run with @p hooks[r].  Rows that share a cache take its next
     * positions in row order, wherever they sit, so a prefill chunk
     * is T rows of one cache and a decode batch one row per cache.
     *
     * Each projection (Q/K/V, output, FFN) runs as one GEMM over all
     * rows (linear streams each weight row once per 32 rows), reading
     * the layer's weights live, so mutation between steps (apply_woq,
     * mutable_layer) is seen at once.  RoPE rotates each row at its
     * own position, fixed before any append.  Every row's K/V is
     * appended, in row order, before any attention; then each (cache,
     * kv head) is gathered once into reused scratch and row r attends
     * its cache's positions up to its own.  Softmax and the FFN
     * activation run on each row's own span, because a windowed
     * approximator picks its window per mapping_rows group.  Row r's
     * output is therefore bit-identical to feeding the rows one at a
     * time through decode_layer (tests/serve/engine_test.cc).
     *
     * With a non-null @p pool the stages fan out across its workers
     * -- column-panel tasks for the GEMMs (inside linear), row-range
     * tasks for RoPE and the activation, (cache, kv head) tasks for
     * attention -- joining at each stage boundary; appends stay
     * serial.  Every task writes disjoint outputs with the serial
     * float-op sequence, so the result is bit-identical to pool ==
     * nullptr (tests/concurrency/pooled_step_test.cc).  With a
     * profiling capture installed the layer runs serially, capturing
     * each row's activation in row order.
     */
    support::MatrixF decode_layer_batch(
        std::size_t layer_idx, const support::MatrixF& x,
        std::span<quant::KvCache* const> caches,
        std::span<const NonlinearHooks* const> hooks,
        support::ThreadPool* pool = nullptr) const;

    /** The norm before the LM head: @p out is @p in normed by row. */
    void final_norm(const support::MatrixF& in,
                    support::MatrixF& out) const
    {
        norm(in, final_norm_gain_, final_norm_bias_, out);
    }
    const support::MatrixF& lm_head() const { return lm_head_; }

    /** Hooks in effect for @p layer. */
    const NonlinearHooks& hooks_for(std::size_t layer) const;

  private:
    support::MatrixF run_layers(support::MatrixF x) const;
    support::MatrixF attention(std::size_t layer_idx,
                               const support::MatrixF& x_norm) const;
    support::MatrixF ffn(std::size_t layer_idx,
                         const support::MatrixF& x_norm,
                         const NonlinearHooks& hooks) const;
    void norm(const support::MatrixF& in, std::span<const float> gain,
              std::span<const float> bias, support::MatrixF& out) const;
    /** Profiling capture for layer @p layer_idx's FFN activation
        (empty when no capture is installed); shared by ffn() and
        decode_layer_batch so both paths report identically. */
    std::function<void(std::span<const float>)>
    activation_capture(std::size_t layer_idx) const;

    ModelConfig config_;
    std::vector<LayerWeights> layers_;
    std::vector<std::optional<NonlinearHooks>> layer_hooks_;
    NonlinearHooks global_hooks_;
    bool hooks_enabled_ = true;
    CaptureFn capture_;
    support::MatrixF embedding_;       ///< [vocab, d]
    support::MatrixF lm_head_;         ///< [d, vocab]
    std::vector<float> final_norm_gain_, final_norm_bias_;
};

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_TRANSFORMER_H_
