#include "model/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "support/thread_pool.h"

namespace mugi {
namespace model {
namespace {

/** Panel edges fall on multiples of this many output columns. */
constexpr std::size_t kPanelColumns = 16;
/** Rows a task adds up in its private tile at a time. */
constexpr std::size_t kTileRows = 32;

/**
 * Columns [c0, c1) of out = x * w, for every row (see linear).  Kept
 * out of line: inlined into linear's task lambda, GCC 12 spilled the
 * inner loop's bound to the stack and the kernel ran a third slower.
 */
[[gnu::noinline]] void
linear_panel(const support::MatrixF& x, const support::MatrixF& w,
             std::size_t c0, std::size_t c1, support::MatrixF& out)
{
    const std::size_t width = c1 - c0;
    std::vector<float> tile(std::min(kTileRows, x.rows()) * width);
    for (std::size_t r0 = 0; r0 < x.rows(); r0 += kTileRows) {
        const std::size_t n = std::min(kTileRows, x.rows() - r0);
        std::fill_n(tile.begin(), n * width, 0.0f);
        for (std::size_t k = 0; k < x.cols(); ++k) {
            const float* wrow = w.row_data(k) + c0;
            for (std::size_t i = 0; i < n; ++i) {
                const float a = x.at(r0 + i, k);
                if (a == 0.0f) {
                    continue;
                }
                float* trow = tile.data() + i * width;
                for (std::size_t j = 0; j < width; ++j) {
                    trow[j] += a * wrow[j];
                }
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::copy_n(tile.data() + i * width, width,
                        out.row_data(r0 + i) + c0);
        }
    }
}

}  // namespace

void
rmsnorm(const support::MatrixF& in, std::span<const float> gain,
        support::MatrixF& out, float eps)
{
    assert(gain.size() == in.cols());
    out = support::MatrixF(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        double sum_sq = 0.0;
        const float* row = in.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            sum_sq += static_cast<double>(row[c]) * row[c];
        }
        const float inv_rms = 1.0f / std::sqrt(static_cast<float>(
                                         sum_sq / in.cols()) +
                                     eps);
        float* dst = out.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            dst[c] = row[c] * inv_rms * gain[c];
        }
    }
}

void
layernorm(const support::MatrixF& in, std::span<const float> gain,
          std::span<const float> bias, support::MatrixF& out, float eps)
{
    assert(gain.size() == in.cols() && bias.size() == in.cols());
    out = support::MatrixF(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        const float* row = in.row_data(r);
        double mean = 0.0;
        for (std::size_t c = 0; c < in.cols(); ++c) {
            mean += row[c];
        }
        mean /= in.cols();
        double var = 0.0;
        for (std::size_t c = 0; c < in.cols(); ++c) {
            const double d = row[c] - mean;
            var += d * d;
        }
        var /= in.cols();
        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps);
        float* dst = out.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            dst[c] = (row[c] - static_cast<float>(mean)) * inv_std *
                         gain[c] +
                     bias[c];
        }
    }
}

void
rope_rotate_row(float* row, std::size_t num_heads,
                std::size_t head_dim, std::size_t pos)
{
    assert(head_dim % 2 == 0);
    const double p = static_cast<double>(pos);
    for (std::size_t h = 0; h < num_heads; ++h) {
        float* head = row + h * head_dim;
        for (std::size_t i = 0; i < head_dim / 2; ++i) {
            const double theta =
                p * std::pow(10000.0,
                             -2.0 * static_cast<double>(i) /
                                 static_cast<double>(head_dim));
            const float cos_t = static_cast<float>(std::cos(theta));
            const float sin_t = static_cast<float>(std::sin(theta));
            const float a = head[2 * i];
            const float b = head[2 * i + 1];
            head[2 * i] = a * cos_t - b * sin_t;
            head[2 * i + 1] = a * sin_t + b * cos_t;
        }
    }
}

void
apply_rope(support::MatrixF& x, std::size_t num_heads,
           std::size_t head_dim, std::size_t start_pos)
{
    assert(x.cols() == num_heads * head_dim);
    for (std::size_t t = 0; t < x.rows(); ++t) {
        rope_rotate_row(x.row_data(t), num_heads, head_dim,
                        start_pos + t);
    }
}

void
softmax_row(
    std::span<float> row,
    const nonlinear::NonlinearApproximator* exp_approx,
    const std::function<void(std::span<const float>)>& capture)
{
    if (capture) {
        const float max = *std::max_element(row.begin(), row.end());
        std::vector<float> shifted(row.size());
        for (std::size_t c = 0; c < row.size(); ++c) {
            shifted[c] = row[c] - max;
        }
        capture(shifted);
    }
    if (exp_approx) {
        nonlinear::softmax_with(*exp_approx, row, row);
    } else {
        nonlinear::softmax_ref(row, row);
    }
}

void
apply_activation_span(
    std::span<float> values, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture)
{
    if (capture) {
        capture(std::span<const float>(values.data(), values.size()));
    }
    if (activation) {
        assert(activation->op() == op);
        activation->apply_batch(values, values);
        return;
    }
    for (float& v : values) {
        v = static_cast<float>(nonlinear::eval_ref(op, v));
    }
}

void
apply_activation(
    support::MatrixF& x, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture)
{
    apply_activation_span(std::span<float>(x.data().data(), x.size()),
                          op, activation, capture);
}

support::MatrixF
linear(const support::MatrixF& x, const support::MatrixF& w,
       support::ThreadPool* pool)
{
    assert(x.cols() == w.rows());
    support::MatrixF out(x.rows(), w.cols());
    const std::size_t panels =
        (w.cols() + kPanelColumns - 1) / kPanelColumns;
    support::for_ranges(
        pool, panels, [&](std::size_t first, std::size_t last) {
            linear_panel(x, w, first * kPanelColumns,
                         std::min(last * kPanelColumns, w.cols()),
                         out);
        });
    return out;
}

}  // namespace model
}  // namespace mugi
