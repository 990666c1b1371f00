#ifndef MUGI_SERVE_PREPARED_WEIGHTS_H_
#define MUGI_SERVE_PREPARED_WEIGHTS_H_

/**
 * @file
 * Load-time weight preparation for the serving path.
 *
 * The removed MugiSystem facade re-ran quant::quantize_int4 on
 * every call -- a per-request cost for state that never changes.  A
 * PreparedWeights handle performs the INT4 group quantization
 * (Sec. 2.3.2) exactly once at load time and holds nothing else: the
 * codes are the temporal array's whole schedule, so every GEMM
 * against the handle runs the sweep-accumulator kernel
 * (vlp::vlp_gemm_sweep) straight over them, one consecutive k-run per
 * quantization group -- no per-group weight or activation copies --
 * and folds each group's scale into the output in one pass.  Handles
 * are cheap to copy (shared immutable storage).
 *
 * Thread-safety: immutable after construction -- the codes and scales
 * behind a handle are built once and never mutated, so one
 * PreparedWeights may back GEMMs on any number of threads
 * concurrently (tests/concurrency/engine_step_stress_test.cc races
 * exactly that under TSan).
 */

#include <cstddef>
#include <memory>

#include "quant/group_quant.h"
#include "support/matrix.h"
#include "vlp/vlp_gemm.h"

namespace mugi {
namespace serve {

/** An immutable, shareable INT4-quantized weight matrix. */
class PreparedWeights {
  public:
    PreparedWeights() = default;

    /** Quantize @p weights once; the handle owns the result. */
    PreparedWeights(const support::MatrixF& weights,
                    std::size_t group_size);

    bool valid() const { return q_ != nullptr; }
    std::size_t rows() const { return q_->rows(); }
    std::size_t cols() const { return q_->cols(); }
    std::size_t group_size() const { return q_->group_size; }

    /** The INT4 codes + scales shared by every GEMM on this handle. */
    const quant::QuantizedMatrix& quantized() const { return *q_; }

    /**
     * Packed INT4 + BF16-scale storage footprint in bytes -- the
     * device-resident weight bytes WOQ's 4x compression is about.
     */
    std::size_t byte_size() const { return q_->byte_size(); }

  private:
    std::shared_ptr<const quant::QuantizedMatrix> q_;
};

/**
 * Functional WOQ GEMM against prepared weights: temporal VLP GEMM of
 * the INT4 codes against BF16 activations, per-group dequantization
 * by the vector array (Sec. 4.2).  Bit-identical to quantizing and
 * running in one shot with the same group size, and to the pre-cached
 * execution that copied per-group weight/activation submatrices
 * (tests/serve/prepared_weights_test.cc pins both).  Pure compute,
 * like vlp::vlp_gemm_sweep: the array charge of the shape is
 * vlp::vlp_gemm_mugi_cycles.
 */
support::MatrixF run_prepared_gemm(const PreparedWeights& weights,
                                   const support::MatrixF& activations);

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_PREPARED_WEIGHTS_H_
