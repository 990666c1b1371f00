#include "model/ops.h"

#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "support/rng.h"

namespace mugi {
namespace model {
namespace {

TEST(Ops, RmsNormUnitScale)
{
    support::MatrixF x(2, 4);
    x.at(0, 0) = 1.0f; x.at(0, 1) = -1.0f;
    x.at(0, 2) = 1.0f; x.at(0, 3) = -1.0f;
    x.at(1, 0) = 2.0f; x.at(1, 1) = -2.0f;
    x.at(1, 2) = 2.0f; x.at(1, 3) = -2.0f;
    std::vector<float> gain(4, 1.0f);
    support::MatrixF out;
    rmsnorm(x, gain, out);
    // Both rows normalize to unit RMS regardless of input scale.
    for (std::size_t r = 0; r < 2; ++r) {
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < 4; ++c) {
            sum_sq += out.at(r, c) * out.at(r, c);
        }
        EXPECT_NEAR(std::sqrt(sum_sq / 4.0), 1.0, 1e-4) << r;
    }
}

TEST(Ops, LayerNormZeroMeanUnitVar)
{
    std::mt19937 rng(281);
    support::MatrixF x(4, 64);
    support::fill_gaussian(x, rng, 3.0f, 2.0f);
    std::vector<float> gain(64, 1.0f), bias(64, 0.0f);
    support::MatrixF out;
    layernorm(x, gain, bias, out);
    for (std::size_t r = 0; r < 4; ++r) {
        double mean = 0.0, var = 0.0;
        for (std::size_t c = 0; c < 64; ++c) mean += out.at(r, c);
        mean /= 64.0;
        for (std::size_t c = 0; c < 64; ++c) {
            var += (out.at(r, c) - mean) * (out.at(r, c) - mean);
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Ops, RopePreservesNorm)
{
    std::mt19937 rng(283);
    support::MatrixF x(8, 32);  // 2 heads x head_dim 16.
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    support::MatrixF before = x;
    apply_rope(x, 2, 16, 5);
    for (std::size_t t = 0; t < 8; ++t) {
        double n_before = 0.0, n_after = 0.0;
        for (std::size_t c = 0; c < 32; ++c) {
            n_before += before.at(t, c) * before.at(t, c);
            n_after += x.at(t, c) * x.at(t, c);
        }
        // Rotations are norm-preserving.
        EXPECT_NEAR(n_after, n_before, 1e-3 * n_before);
    }
}

TEST(Ops, RopeRelativePositionProperty)
{
    // The defining property of RoPE: <rope(q, m), rope(k, n)> depends
    // only on m - n.  Check a single head pair at two offsets.
    const std::size_t hd = 16;
    support::MatrixF q(1, hd), k(1, hd);
    std::mt19937 rng(293);
    support::fill_gaussian(q, rng, 0.0f, 1.0f);
    support::fill_gaussian(k, rng, 0.0f, 1.0f);

    const auto rotated_dot = [&](std::size_t pos_q, std::size_t pos_k) {
        support::MatrixF qq = q, kk = k;
        apply_rope(qq, 1, hd, pos_q);
        apply_rope(kk, 1, hd, pos_k);
        float dot = 0.0f;
        for (std::size_t i = 0; i < hd; ++i) {
            dot += qq.at(0, i) * kk.at(0, i);
        }
        return dot;
    };
    EXPECT_NEAR(rotated_dot(7, 3), rotated_dot(14, 10), 1e-3);
    EXPECT_NEAR(rotated_dot(2, 2), rotated_dot(9, 9), 1e-3);
}

TEST(Ops, RopeAtPositionZeroIsIdentity)
{
    support::MatrixF x(1, 8);
    for (std::size_t i = 0; i < 8; ++i) x.at(0, i) = float(i + 1);
    support::MatrixF before = x;
    apply_rope(x, 1, 8, 0);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(x.at(0, i), before.at(0, i), 1e-6);
    }
}

TEST(Ops, SoftmaxRowsNormalizes)
{
    std::mt19937 rng(307);
    support::MatrixF scores(6, 40);
    support::fill_gaussian(scores, rng, 0.0f, 3.0f);
    for (std::size_t r = 0; r < 6; ++r) {
        softmax_row({scores.row_data(r), 40}, nullptr);
        double sum = 0.0;
        for (std::size_t c = 0; c < 40; ++c) sum += scores.at(r, c);
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxRowsCaptureSeesShiftedInputs)
{
    std::vector<float> scores = {1.0f, 3.0f, 2.0f, 0.0f};
    std::vector<float> captured;
    softmax_row(scores, nullptr, [&](std::span<const float> row) {
        captured.assign(row.begin(), row.end());
    });
    ASSERT_EQ(captured.size(), 4u);
    // Max-subtracted: the maximum becomes 0, others negative.
    EXPECT_EQ(captured[1], 0.0f);
    EXPECT_EQ(captured[0], -2.0f);
    EXPECT_EQ(captured[3], -3.0f);
}

TEST(Ops, SoftmaxRowsHandlesMaskedRow)
{
    std::vector<float> scores = {0.5f, -INFINITY, -INFINITY};
    softmax_row(scores, nullptr);
    EXPECT_NEAR(scores[0], 1.0f, 1e-6);
    EXPECT_EQ(scores[1], 0.0f);
}

TEST(Ops, ApplyActivationExactMatchesReference)
{
    std::mt19937 rng(311);
    support::MatrixF x(3, 16);
    support::fill_gaussian(x, rng, 0.0f, 2.0f);
    support::MatrixF expected = x;
    apply_activation(x, nonlinear::NonlinearOp::kSilu, nullptr);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(
            x.data()[i],
            nonlinear::silu_ref(expected.data()[i]), 1e-6);
    }
}

/** y = x * w as a plain i-k-j loop, with no zero skip. */
support::MatrixF
plain_gemm(const support::MatrixF& x, const support::MatrixF& w)
{
    support::MatrixF y(x.rows(), w.cols(), 0.0f);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t k = 0; k < x.cols(); ++k) {
            for (std::size_t j = 0; j < w.cols(); ++j) {
                y.at(i, j) += x.at(i, k) * w.at(k, j);
            }
        }
    }
    return y;
}

TEST(Ops, LinearBitIdenticalToPlainLoopWithoutZeroSkip)
{
    // linear skips zero inputs; with finite weights the skip must
    // change no bit, -0 inputs included.  Row counts cross the
    // 32-row tile; column counts fall below, on and off a 16-column
    // panel edge.
    std::mt19937 rng(321);
    for (const std::size_t rows : {1u, 3u, 16u, 40u}) {
        for (const std::size_t cols : {5u, 16u, 40u, 100u}) {
            support::MatrixF x(rows, 24);
            support::MatrixF w(24, cols);
            support::fill_gaussian(x, rng, 0.0f, 1.0f);
            support::fill_gaussian(w, rng, 0.0f, 0.5f);
            x.at(0, 3) = 0.0f;
            x.at(rows - 1, 20) = -0.0f;
            if (rows > 2) {
                // A row of -0 inputs: every product is +-0, and the
                // cells must still read +0.
                for (std::size_t k = 0; k < x.cols(); ++k) {
                    x.at(1, k) = -0.0f;
                }
            }
            const support::MatrixF got = linear(x, w);
            const support::MatrixF want = plain_gemm(x, w);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data().data(),
                                  want.data().data(),
                                  got.size() * sizeof(float)),
                      0)
                << rows << " x " << cols;
        }
    }
}

TEST(Ops, RopeRotateRowMatchesApplyRopeAtEveryPosition)
{
    // decode_layer_batch rotates each batch row at its own session's
    // position via rope_rotate_row; it must equal apply_rope on a
    // one-row matrix at the same start position.
    std::mt19937 rng(331);
    for (const std::size_t pos : {0u, 1u, 17u, 100u}) {
        support::MatrixF row(1, 2 * 8);
        support::fill_gaussian(row, rng, 0.0f, 1.0f);
        support::MatrixF expected = row;
        apply_rope(expected, 2, 8, pos);
        rope_rotate_row(row.row_data(0), 2, 8, pos);
        EXPECT_TRUE(row == expected) << "pos " << pos;
    }
}

TEST(Ops, ApplyActivationSpanMatchesMatrixForm)
{
    std::mt19937 rng(341);
    support::MatrixF x(1, 32);
    support::fill_gaussian(x, rng, 0.0f, 2.0f);
    support::MatrixF as_matrix = x;
    std::vector<float> as_span(x.data().begin(), x.data().end());
    apply_activation(as_matrix, nonlinear::NonlinearOp::kGelu,
                     nullptr);
    apply_activation_span(as_span, nonlinear::NonlinearOp::kGelu,
                          nullptr);
    for (std::size_t i = 0; i < as_span.size(); ++i) {
        EXPECT_EQ(as_span[i], as_matrix.data()[i]) << i;
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
