#ifndef MUGI_VLP_VLP_GEMM_H_
#define MUGI_VLP_VLP_GEMM_H_

/**
 * @file
 * Multiplier-free VLP GEMM (Sec. 2.1, Sec. 4.2).
 *
 * Mugi's asymmetric mapping transposes Carat's: INT4 weights (or
 * quantized KV-cache entries) are temporally coded on the *rows* with
 * a slim sign-magnitude datapath, while BF16 activations (or Q tokens)
 * occupy the *columns* and are value-reused by the per-column
 * accumulators.  One outer-product (k-step) sweep takes 2^3 = 8 cycles
 * for the 3-bit magnitude, matching the 8-column array.  Carat's
 * symmetric mapping is the same computation with the operands in the
 * other order -- the batch's INT4 activations temporally coded, the
 * weights value-reused -- so vlp_gemm_mugi runs it when handed them
 * that way (tests/vlp/vlp_gemm_test.cc compares the two mappings'
 * cycles at batch 8).
 *
 * vlp_gemm_mugi_baseline is the *cycle-accurate functional* model: it
 * replays every cycle of every sweep and counts them.  The analytic
 * count vlp_gemm_mugi_cycles equals its count (tests pin this), and
 * the analytic performance model (src/sim) charges VLP GEMMs by it.
 *
 * Execution strategy: the shipped kernel uses a *sweep-accumulator
 * table* instead of literally replaying every cycle.  Per (k, column)
 * the 2^mb accumulator states of a sweep are materialized once by
 * incremental addition (the identical float-op sequence the temporal
 * accumulator produces) next to their exact negations, and every row
 * adds the one state its sign-magnitude INT4 code indexes -- the
 * cycle at which its subscription fires, read straight from the
 * codes (vlp_gemm_sweep) -- O(nh + 2^mb) work per sweep instead of
 * the O(nh * 2^mb) cycle-by-row scan.  Outputs and all counters are
 * bit-identical to vlp_gemm_mugi_baseline's, pinned by tests
 * (tests/vlp/vlp_gemm_test.cc).
 */

#include <cstddef>
#include <cstdint>

#include "numerics/int4.h"
#include "support/matrix.h"

namespace mugi {
namespace vlp {

/** Matrix of sign-magnitude INT4 values. */
using Int4Matrix = support::Matrix<numerics::Int4>;

/** Result of a simulated VLP GEMM. */
struct VlpGemmResult {
    support::MatrixF out;          ///< Output-stationary result.
    std::uint64_t cycles = 0;      ///< Simulated cycle count.
    std::uint64_t sweeps = 0;      ///< Temporal sweeps executed.
    std::uint64_t subscriptions = 0;  ///< Temporal subscriptions fired.
};

/**
 * Sweep-accumulator GEMM core, restricted to reduction columns
 * [k_begin, k_end):
 *
 *   out[r][c] += sum_{k in [k_begin, k_end)}
 *                  sign(r, k) * accs_k_c[magnitude(r, k)]
 *
 * where accs_k_c[m] = m * values[k][c] built by repeated addition --
 * the exact accumulator states of the temporal sweep -- and each row
 * adds the state its sign-magnitude code (Int4::encode) selects, as
 * an array row fires when the sweep counter reaches its magnitude.
 * The codes are the whole schedule: nothing is precomputed from
 * them.  Every cell receives the literal scan's adds in ascending k.
 * @p out must be shaped temporal.rows() x values.cols(); partial
 * results accumulate into it (callers zero it per quantization group
 * to fold per-group scales).  Pure compute: cycle/sweep counters are
 * analytic (vlp_gemm_mugi_cycles) and owned by the callers.
 */
void vlp_gemm_sweep(const Int4Matrix& temporal,
                    const support::MatrixF& values,
                    std::size_t k_begin, std::size_t k_end,
                    support::MatrixF& out);

/**
 * Mugi-mapped GEMM: out[n][b] = sum_k weights[n][k] * activations[k][b].
 *
 * @param weights INT4 weights (or KV entries), logical shape N x K.
 * @param activations BF16-valued activations, logical shape K x B
 *        (values should already be BF16-rounded; the model treats
 *        them as exact binary32).
 * @param array_rows Array height H (weights tile size along N).
 * @param array_cols Array width (8 in the paper; B tile size).
 */
VlpGemmResult vlp_gemm_mugi(const Int4Matrix& weights,
                            const support::MatrixF& activations,
                            int array_rows, int array_cols);

/**
 * The literal cycle-by-row simulation of the Mugi mapping (the
 * pre-optimization kernel): every sweep scans all nh tile rows on
 * each of the 2^mb cycles.  Kept as the golden reference for the
 * sweep-accumulator kernel's bit-identity tests and as the baseline
 * of bench/gemm_throughput.
 */
VlpGemmResult vlp_gemm_mugi_baseline(const Int4Matrix& weights,
                                     const support::MatrixF& activations,
                                     int array_rows, int array_cols);

/**
 * Analytic cycle count of the Mugi mapping:
 *   ceil(N / H) * ceil(B / W) * K * 2^3
 * (one 2^3-cycle sweep of the INT4 magnitude per k-step, steady-state
 * pipelined; matches the simulated count).  The one VLP cycle count
 * outside the literal simulation: vlp_gemm_mugi's counters and
 * sim::gemm_cost's VLP branch both take it from here.
 */
std::uint64_t vlp_gemm_mugi_cycles(std::size_t n, std::size_t b,
                                   std::size_t k, int array_rows,
                                   int array_cols);

/** Reference: direct GEMM of INT4 weights against float activations. */
support::MatrixF int4_gemm_reference(const Int4Matrix& weights,
                                     const support::MatrixF& activations);

}  // namespace vlp
}  // namespace mugi

#endif  // MUGI_VLP_VLP_GEMM_H_
