#ifndef MUGI_MODEL_TRANSFORMER_H_
#define MUGI_MODEL_TRANSFORMER_H_

/**
 * @file
 * The from-scratch transformer substrate used for the accuracy and
 * profiling studies (Sec. 3, 5.1): a faithful pre-norm transformer
 * with GQA, RoPE, SwiGLU/GELU FFN, causal or bidirectional attention,
 * WOQ fake-quantization of the weights, and a KV-cached decode path
 * with optional KVQ.  The model holds only weights: each forward
 * pass takes its nonlinear implementations (one NonlinearHooks per
 * layer, the knob the Fig. 6/7 sweeps turn) and its profiling
 * capture (Fig. 4) as arguments, so one const model serves any
 * number of differently tuned callers at once.
 */

#include <functional>
#include <memory>
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

    /**
     * Fake-quantize every weight matrix through INT4 group
     * quantization (WOQ, Sec. 2.3.2): weights are replaced by their
     * dequantized values, so the forward pass sees exactly the
     * precision the INT4 datapath would.
     */
    void apply_woq(std::size_t group_size);

    /**
     * Full-sequence forward pass over token ids; returns next-token
     * logits per position, shape [T, vocab].  Layer l runs
     * @p layer_hooks[l]: empty means exact on every layer, otherwise
     * it holds one entry per layer (Fig. 7 per-layer tuning).  A set
     * @p capture receives every layer's max-subtracted softmax rows
     * and FFN activation inputs (Fig. 4).
     */
    support::MatrixF forward_tokens(
        std::span<const int> tokens,
        std::span<const NonlinearHooks> layer_hooks = {},
        const CaptureFn& capture = {}) const;

    /**
     * Forward pass over raw embeddings (vision-style input), shape
     * [T, d_model]; returns logits per position.  @p layer_hooks and
     * @p capture as for forward_tokens.
     */
    support::MatrixF forward_embeddings(
        const support::MatrixF& embeddings,
        std::span<const NonlinearHooks> layer_hooks = {},
        const CaptureFn& capture = {}) const;

    /** Embedding row for a token (used by the decode path). */
    std::span<const float> embedding(int token) const;

    std::size_t num_layers() const { return layers_.size(); }
    const LayerWeights& layer(std::size_t i) const { return layers_[i]; }

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
     * the layer's weights live, so an apply_woq between steps is seen
     * at once.  RoPE rotates each row at its own position, fixed
     * before any append.  Every row's K/V is appended, in row order,
     * before any attention; then each (cache, kv head) is gathered
     * once into reused scratch and row r attends its cache's
     * positions up to its own.  Softmax and the FFN
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
     * nullptr (tests/concurrency/pooled_step_test.cc).
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

  private:
    support::MatrixF run_layers(
        support::MatrixF x,
        std::span<const NonlinearHooks> layer_hooks,
        const CaptureFn& capture) const;
    support::MatrixF attention(std::size_t layer_idx,
                               const support::MatrixF& x_norm,
                               const NonlinearHooks& hooks,
                               const CaptureFn& capture) const;
    support::MatrixF ffn(std::size_t layer_idx,
                         const support::MatrixF& x_norm,
                         const NonlinearHooks& hooks,
                         const CaptureFn& capture) const;
    void norm(const support::MatrixF& in, std::span<const float> gain,
              std::span<const float> bias, support::MatrixF& out) const;

    ModelConfig config_;
    std::vector<LayerWeights> layers_;
    support::MatrixF embedding_;       ///< [vocab, d]
    support::MatrixF lm_head_;         ///< [d, vocab]
    std::vector<float> final_norm_gain_, final_norm_bias_;
};

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_TRANSFORMER_H_
