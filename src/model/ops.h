#ifndef MUGI_MODEL_OPS_H_
#define MUGI_MODEL_OPS_H_

/**
 * @file
 * Tensor-level building blocks of the transformer substrate: RMSNorm,
 * LayerNorm, rotary position embeddings (RoPE), row-wise softmax with
 * a pluggable exp, the pluggable FFN activation, and the float GEMM.
 */

#include <functional>
#include <span>

#include "nonlinear/approximator.h"
#include "support/matrix.h"

namespace mugi {
namespace support {
class ThreadPool;
}  // namespace support
namespace model {

/** RMSNorm: x / rms(x) * gain, per row. */
void rmsnorm(const support::MatrixF& in, std::span<const float> gain,
             support::MatrixF& out, float eps = 1e-5f);

/** LayerNorm: (x - mean) / std * gain + bias, per row. */
void layernorm(const support::MatrixF& in, std::span<const float> gain,
               std::span<const float> bias, support::MatrixF& out,
               float eps = 1e-5f);

/**
 * Rotary position embeddings applied in place to a [T, H*hd] matrix:
 * rotate each consecutive pair of dims in each head by position-
 * dependent angles (theta = 10000^{-2i/hd}).
 *
 * @param x In/out activations, row t is position start_pos + t.
 */
void apply_rope(support::MatrixF& x, std::size_t num_heads,
                std::size_t head_dim, std::size_t start_pos);

/**
 * RoPE rotation of a single [H*hd] row at position @p pos -- the
 * per-row body of apply_rope, exposed so the ragged-row decode path
 * can rotate each row at its own position with apply_rope's exact
 * float-op sequence.
 */
void rope_rotate_row(float* row, std::size_t num_heads,
                     std::size_t head_dim, std::size_t pos);

/**
 * Softmax of one row of scores in place, where exp comes from
 * @p exp_approx (nullptr = exact).  An optional @p capture receives
 * the row's max-subtracted inputs before exponentiation (profiling
 * hook for Fig. 4).
 */
void softmax_row(
    std::span<float> row,
    const nonlinear::NonlinearApproximator* exp_approx,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * Apply @p activation element-wise (nullptr = exact @p op).  The
 * optional @p capture receives the raw pre-activation values.
 */
void apply_activation(
    support::MatrixF& x, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * Span form of apply_activation: one capture + one apply_batch over
 * @p values.  The ragged-row decode path calls this once per row so
 * a windowed approximator (whose sliding window is re-chosen per
 * group of mapping_rows inputs) sees exactly one token's inputs.
 */
void apply_activation_span(
    std::span<float> values, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * y = x * w, where w has shape [in, out]: the float GEMM every
 * projection, LM head and reference matmul runs.
 *
 * Every output cell starts at +0 and adds x[i][k] * w[k][j] in
 * ascending k, skipping the k where x[i][k] is zero.  For finite
 * weights the skip changes no bit: the skipped product is +-0, and
 * adding +-0 leaves a nonzero cell unchanged and a +0 cell at +0;
 * a cell is never -0, since it starts at +0 and a sum is -0 only
 * when both addends are (tests/model/ops_test.cc checks this against
 * a loop without the skip, +0 and -0 inputs included).
 *
 * The output columns are cut into panels that start at multiples of
 * 16 columns.  With a non-null @p pool each task owns a contiguous
 * run of panels (support::for_ranges), so each worker streams its
 * own slab of @p w -- the CPU form of Mugi's weight-stationary row
 * mapping.  A task adds up at most 32 rows at a time in a private
 * tile, then copies the tile out: tasks writing straight into the
 * output shared cache lines at panel edges (rows are neither 64-byte
 * aligned nor whole lines long).  The per-cell sequence does not
 * depend on the split, so the result is bit-identical with or
 * without a pool.
 */
support::MatrixF linear(const support::MatrixF& x,
                        const support::MatrixF& w,
                        support::ThreadPool* pool = nullptr);

/**
 * linear(x, w) under its old batched-decode name, kept only for the
 * model.linear_batched_b16_gmacs probe in perfbench/perfbench.cc.
 */
inline support::MatrixF
linear_batched(const support::MatrixF& x, const support::MatrixF& w)
{
    return linear(x, w);
}

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_OPS_H_
