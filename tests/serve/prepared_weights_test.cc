/**
 * @file
 * Regression tests for the quantize-once serving path: a reused
 * PreparedWeights handle must give bit-identical outputs to
 * quantizing the weights afresh for every call.
 */

#include "serve/prepared_weights.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "model/ops.h"
#include "support/rng.h"

namespace mugi {
namespace serve {
namespace {

TEST(PreparedWeights, ReusedHandleIsBitIdenticalToOneShot)
{
    std::mt19937 rng(313);
    support::MatrixF weights(48, 96);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);

    const PreparedWeights prepared(weights, 32);
    for (int trial = 0; trial < 3; ++trial) {
        support::MatrixF acts(96, 8);
        support::fill_gaussian(acts, rng, 0.0f, 1.0f);
        const support::MatrixF reused =
            run_prepared_gemm(prepared, acts);
        const support::MatrixF one_shot =
            run_prepared_gemm(PreparedWeights(weights, 32), acts);
        ASSERT_EQ(reused.rows(), one_shot.rows());
        ASSERT_EQ(reused.cols(), one_shot.cols());
        for (std::size_t i = 0; i < reused.size(); ++i) {
            EXPECT_EQ(reused.data()[i], one_shot.data()[i])
                << "trial " << trial << " element " << i;
        }
    }
}

TEST(PreparedWeights, QuantizesExactlyOnce)
{
    // The handle shares one immutable quantization: copies alias the
    // same storage instead of re-quantizing.
    std::mt19937 rng(77);
    support::MatrixF weights(16, 32);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);

    const PreparedWeights a(weights, 16);
    const PreparedWeights b = a;  // Handle copy, not a re-quantize.
    EXPECT_EQ(&a.quantized(), &b.quantized());
    EXPECT_EQ(a.group_size(), 16u);
    EXPECT_EQ(a.rows(), 16u);
    EXPECT_EQ(a.cols(), 32u);
    // INT4 + per-group BF16 scales: ~4x smaller than float storage.
    EXPECT_LT(a.byte_size(), weights.size() * sizeof(float) / 3);
}

TEST(PreparedWeights, ZeroCopyExecutionMatchesLegacyGroupCopies)
{
    // The pre-optimization run_prepared_gemm materialized per-group
    // weight/activation submatrices and ran the kernel over the
    // copies.  Replicate that execution here (against the baseline
    // kernel) and require the cached-schedule path to match bit for
    // bit -- including a group-size tail (cols % group_size != 0).
    std::mt19937 rng(909);
    for (const std::size_t group_size : {16u, 24u, 96u}) {
        support::MatrixF weights(37, 80);  // 80 % 24 != 0: tail group.
        support::MatrixF acts(80, 11);
        support::fill_gaussian(weights, rng, 0.0f, 0.5f);
        support::fill_gaussian(acts, rng, 0.0f, 1.0f);
        const PreparedWeights prepared(weights, group_size);
        const support::MatrixF out =
            run_prepared_gemm(prepared, acts);

        const quant::QuantizedMatrix& q = prepared.quantized();
        support::MatrixF expected(q.rows(), acts.cols(), 0.0f);
        const std::size_t groups =
            (q.cols() + group_size - 1) / group_size;
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t begin = g * group_size;
            const std::size_t end =
                std::min(begin + group_size, q.cols());
            vlp::Int4Matrix wg(q.rows(), end - begin);
            support::MatrixF ag(end - begin, acts.cols());
            for (std::size_t r = 0; r < q.rows(); ++r) {
                for (std::size_t c = begin; c < end; ++c) {
                    wg.at(r, c - begin) = q.values.at(r, c);
                }
            }
            for (std::size_t c = begin; c < end; ++c) {
                for (std::size_t b = 0; b < acts.cols(); ++b) {
                    ag.at(c - begin, b) = acts.at(c, b);
                }
            }
            const vlp::VlpGemmResult partial =
                vlp::vlp_gemm_mugi_baseline(wg, ag, 16, 8);
            for (std::size_t r = 0; r < expected.rows(); ++r) {
                const float scale = q.scales.at(r, g);
                for (std::size_t b = 0; b < expected.cols(); ++b) {
                    expected.at(r, b) += partial.out.at(r, b) * scale;
                }
            }
        }
        EXPECT_TRUE(out == expected) << "group size " << group_size;
    }
}

TEST(PreparedWeights, AgreesWithDequantizedReference)
{
    std::mt19937 rng(511);
    support::MatrixF weights(24, 64);
    support::MatrixF acts(64, 8);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);
    support::fill_gaussian(acts, rng, 0.0f, 1.0f);

    const PreparedWeights prepared(weights, 16);
    const support::MatrixF out = run_prepared_gemm(prepared, acts);
    const support::MatrixF deq = quant::dequantize(prepared.quantized());
    const support::MatrixF expected = model::linear(deq, acts);
    for (std::size_t r = 0; r < expected.rows(); ++r) {
        for (std::size_t c = 0; c < expected.cols(); ++c) {
            EXPECT_NEAR(out.at(r, c), expected.at(r, c), 2e-3);
        }
    }
}

}  // namespace
}  // namespace serve
}  // namespace mugi
