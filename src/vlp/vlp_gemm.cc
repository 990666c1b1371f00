#include "vlp/vlp_gemm.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace mugi {
namespace vlp {
namespace {

constexpr int kMagnitudeBits = numerics::kInt4MagnitudeBits;
constexpr std::uint32_t kSweep = 1u << kMagnitudeBits;
/** Reduction columns whose sweep tables are built at once. */
constexpr std::size_t kBlock = 32;
/** Value columns of one panel (the array's width). */
constexpr std::size_t kLanes = 8;
/** Rows whose independent add chains are stepped together. */
constexpr std::size_t kRowGroup = 4;

/**
 * Four float lanes added as plain IEEE single-precision adds: one SSE
 * register on any x86-64 (GCC/Clang vector extension).
 */
using Vec = float __attribute__((vector_size(4 * sizeof(float))));
/** Vecs per panel row of kLanes floats. */
constexpr std::size_t kVecs = kLanes / 4;

/** A block's signed sweep states, [k][sign-magnitude code]. */
using SweepTables = Vec[kBlock][2 * kSweep][kVecs];

/**
 * Adds the block [k0, k0 + kn) of the sweep to kRows consecutive
 * rows from @p r, over the panel of @p lanes value columns at @p c0.
 * Each row walks its own codes in ascending k, so every cell gets
 * the literal scan's add sequence; rows own disjoint cells, so
 * stepping several rows together -- their add chains overlap in the
 * pipeline -- changes no bit.
 */
template <std::size_t kRows>
void
walk_rows(const Int4Matrix& temporal, const SweepTables& states,
          std::size_t r, std::size_t k0, std::size_t kn,
          std::size_t c0, std::size_t lanes, support::MatrixF& out)
{
    const numerics::Int4* codes[kRows] = {};
    Vec cell[kRows][kVecs] = {};
    for (std::size_t i = 0; i < kRows; ++i) {
        codes[i] = temporal.row_data(r + i) + k0;
        std::memcpy(cell[i], out.row_data(r + i) + c0,
                    lanes * sizeof(float));
    }
    for (std::size_t kk = 0; kk < kn; ++kk) {
        for (std::size_t i = 0; i < kRows; ++i) {
            const Vec* state = states[kk][codes[i][kk].encode()];
            for (std::size_t v = 0; v < kVecs; ++v) {
                cell[i][v] += state[v];
            }
        }
    }
    for (std::size_t i = 0; i < kRows; ++i) {
        std::memcpy(out.row_data(r + i) + c0, cell[i],
                    lanes * sizeof(float));
    }
}

}  // namespace

void
vlp_gemm_sweep(const Int4Matrix& temporal,
               const support::MatrixF& values, std::size_t k_begin,
               std::size_t k_end, support::MatrixF& out)
{
    assert(k_begin <= k_end && k_end <= temporal.cols());
    assert(k_end <= values.rows());
    assert(out.rows() == temporal.rows() &&
           out.cols() == values.cols());
    const std::size_t rows = temporal.rows();
    const std::size_t c_total = values.cols();

    // The sweep tables of kBlock reduction columns over one panel of
    // kLanes value columns: states[kk][m] = m * act by the same
    // incremental additions the temporal accumulator performs cycle
    // by cycle, and states[kk][kSweep + m] their exact (IEEE)
    // negations, so a row's sign-magnitude code indexes exactly what
    // the literal scan adds on the row's firing cycle -- +0 or -0 for
    // magnitude 0.  Skipping those adds would change no bit either:
    // a sum is -0 only if both addends are, and every caller's cells
    // start at +0.  Lanes past c_total sweep zeros, never stored.
    SweepTables states = {};
    for (std::size_t c0 = 0; c0 < c_total; c0 += kLanes) {
        const std::size_t lanes = std::min(kLanes, c_total - c0);
        for (std::size_t k0 = k_begin; k0 < k_end; k0 += kBlock) {
            const std::size_t kn = std::min(kBlock, k_end - k0);
            for (std::size_t kk = 0; kk < kn; ++kk) {
                Vec act[kVecs] = {};
                std::memcpy(act, values.row_data(k0 + kk) + c0,
                            lanes * sizeof(float));
                for (std::size_t v = 0; v < kVecs; ++v) {
                    Vec acc = {};
                    for (std::uint32_t m = 0; m < kSweep; ++m) {
                        states[kk][m][v] = acc;
                        states[kk][kSweep + m][v] = -acc;
                        acc += act[v];
                    }
                }
            }
            std::size_t r = 0;
            for (; r + kRowGroup <= rows; r += kRowGroup) {
                walk_rows<kRowGroup>(temporal, states, r, k0, kn, c0,
                                     lanes, out);
            }
            for (; r < rows; ++r) {
                walk_rows<1>(temporal, states, r, k0, kn, c0, lanes,
                             out);
            }
        }
    }
}

VlpGemmResult
vlp_gemm_mugi(const Int4Matrix& weights,
              const support::MatrixF& activations, int array_rows,
              int array_cols)
{
    assert(weights.cols() == activations.rows());
    assert(array_rows >= 1 && array_cols >= 1);
    const std::size_t n_total = weights.rows();
    const std::size_t k_total = weights.cols();
    const std::size_t b_total = activations.cols();

    VlpGemmResult result;
    result.out = support::MatrixF(n_total, b_total, 0.0f);
    vlp_gemm_sweep(weights, activations, 0, k_total, result.out);

    // The literal scan provably runs one 2^mb-cycle sweep per (row
    // tile, column tile, k) and fires one subscription per (n, k, b).
    result.cycles = vlp_gemm_mugi_cycles(n_total, b_total, k_total,
                                         array_rows, array_cols);
    result.sweeps = result.cycles / kSweep;
    result.subscriptions =
        static_cast<std::uint64_t>(n_total) * k_total * b_total;
    return result;
}

VlpGemmResult
vlp_gemm_mugi_baseline(const Int4Matrix& weights,
                       const support::MatrixF& activations,
                       int array_rows, int array_cols)
{
    assert(weights.cols() == activations.rows());
    assert(array_rows >= 1 && array_cols >= 1);
    const std::size_t n_total = weights.rows();
    const std::size_t k_total = weights.cols();
    const std::size_t b_total = activations.cols();

    VlpGemmResult result;
    result.out = support::MatrixF(n_total, b_total, 0.0f);

    // Output-stationary tiling over the H x W array.
    for (std::size_t n0 = 0; n0 < n_total;
         n0 += static_cast<std::size_t>(array_rows)) {
        const std::size_t nh = std::min(
            static_cast<std::size_t>(array_rows), n_total - n0);
        for (std::size_t b0 = 0; b0 < b_total;
             b0 += static_cast<std::size_t>(array_cols)) {
            const std::size_t bw = std::min(
                static_cast<std::size_t>(array_cols), b_total - b0);
            // Each k-step is one temporal sweep: per-column
            // accumulators build multiples of the BF16 activation and
            // every weight row subscribes at its magnitude cycle.
            for (std::size_t k = 0; k < k_total; ++k) {
                for (std::size_t c = 0; c < bw; ++c) {
                    const float act = activations.at(k, b0 + c);
                    float acc = 0.0f;  // Value reuse: one accumulation.
                    for (std::uint32_t cycle = 0; cycle < kSweep;
                         ++cycle) {
                        for (std::size_t r = 0; r < nh; ++r) {
                            const numerics::Int4 w =
                                weights.at(n0 + r, k);
                            if (w.magnitude == cycle) {
                                // Temporal subscription; the SC block
                                // applies the sign.
                                const float product =
                                    w.sign ? -acc : acc;
                                result.out.at(n0 + r, b0 + c) += product;
                                ++result.subscriptions;
                            }
                        }
                        acc += act;
                    }
                }
                // All columns of a k-step share the 2^mb-cycle sweep
                // (columns are staggered but fully pipelined).
                result.cycles += kSweep;
                ++result.sweeps;
            }
        }
    }
    return result;
}

std::uint64_t
vlp_gemm_mugi_cycles(std::size_t n, std::size_t b, std::size_t k,
                     int array_rows, int array_cols)
{
    const std::uint64_t n_tiles =
        (n + array_rows - 1) / static_cast<std::size_t>(array_rows);
    const std::uint64_t b_tiles =
        (b + array_cols - 1) / static_cast<std::size_t>(array_cols);
    return n_tiles * b_tiles * k * kSweep;
}

support::MatrixF
int4_gemm_reference(const Int4Matrix& weights,
                    const support::MatrixF& activations)
{
    assert(weights.cols() == activations.rows());
    support::MatrixF out(weights.rows(), activations.cols(), 0.0f);
    for (std::size_t n = 0; n < weights.rows(); ++n) {
        for (std::size_t b = 0; b < activations.cols(); ++b) {
            // Match the temporal model's accumulation order (k
            // ascending, float accumulation) so results are
            // bit-identical.
            float acc = 0.0f;
            for (std::size_t k = 0; k < weights.cols(); ++k) {
                const int w = weights.at(n, k).value();
                float product = 0.0f;
                const float act = activations.at(k, b);
                // Magnitude * act as repeated addition, exactly as the
                // temporal accumulator computes it.
                for (int t = 0; t < std::abs(w); ++t) {
                    product += act;
                }
                acc += (w < 0) ? -product : product;
            }
            out.at(n, b) = acc;
        }
    }
    return out;
}

}  // namespace vlp
}  // namespace mugi
