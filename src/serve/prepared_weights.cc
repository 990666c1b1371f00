#include "serve/prepared_weights.h"

#include <algorithm>
#include <cassert>

namespace mugi {
namespace serve {

PreparedWeights::PreparedWeights(const support::MatrixF& weights,
                                 std::size_t group_size)
    : q_(std::make_shared<const quant::QuantizedMatrix>(
          quant::quantize_int4(weights, group_size)))
{
}

support::MatrixF
run_prepared_gemm(const PreparedWeights& weights,
                  const support::MatrixF& activations)
{
    const quant::QuantizedMatrix& q = weights.quantized();
    const std::size_t group_size = q.group_size;
    const std::size_t rows = q.rows();
    const std::size_t b_total = activations.cols();
    assert(q.cols() == activations.rows());

    support::MatrixF out(rows, b_total, 0.0f);

    // The temporal array computes per-group partial sums in INT4 x
    // BF16; the vector array applies the per-group scale during
    // dequantization (Sec. 4.2).  The sweep-accumulator kernel runs
    // straight over the handle's codes -- each group is a consecutive
    // k-run, so no weight or activation submatrices are materialized
    // -- and the partial buffer is folded into the output with the
    // group's scale in one pass.
    support::MatrixF partial(rows, b_total);
    const std::size_t groups =
        group_size == 0 ? 0 : (q.cols() + group_size - 1) / group_size;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t begin = g * group_size;
        const std::size_t end =
            std::min(begin + group_size, q.cols());
        std::fill(partial.data().begin(), partial.data().end(), 0.0f);
        vlp::vlp_gemm_sweep(q.values, activations, begin, end,
                            partial);
        for (std::size_t r = 0; r < rows; ++r) {
            const float scale = q.scales.at(r, g);
            const float* prow = partial.row_data(r);
            float* orow = out.row_data(r);
            for (std::size_t b = 0; b < b_total; ++b) {
                orow[b] += prow[b] * scale;
            }
        }
    }
    return out;
}

}  // namespace serve
}  // namespace mugi
