#include "nonlinear/reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mugi {
namespace nonlinear {
namespace {

/** Differentiate a polynomial given by ascending coefficients. */
std::vector<double>
poly_derivative(const std::vector<double>& p)
{
    if (p.size() <= 1) {
        return {0.0};
    }
    std::vector<double> result(p.size() - 1);
    for (std::size_t i = 1; i < p.size(); ++i) {
        result[i - 1] = p[i] * static_cast<double>(i);
    }
    return result;
}

double
poly_eval(const std::vector<double>& p, double x)
{
    double acc = 0.0;
    for (std::size_t i = p.size(); i-- > 0;) {
        acc = acc * x + p[i];
    }
    return acc;
}

/**
 * Apply the sigmoid derivative operator to a polynomial in s.
 * With s' = s - s^2, D(sum a_i s^i) = sum a_i * i * (s^i - s^{i+1}).
 */
std::vector<double>
sigmoid_derivative_step(const std::vector<double>& p)
{
    std::vector<double> result(p.size() + 1, 0.0);
    for (std::size_t i = 1; i < p.size(); ++i) {
        const double ai = p[i] * static_cast<double>(i);
        result[i] += ai;
        result[i + 1] -= ai;
    }
    return result;
}

/** All sigmoid derivatives D^0..D^n as polynomials in s. */
std::vector<std::vector<double>>
sigmoid_derivative_polys(int n)
{
    std::vector<std::vector<double>> polys;
    polys.push_back({0.0, 1.0});  // D^0 s = s.
    for (int k = 1; k <= n; ++k) {
        polys.push_back(sigmoid_derivative_step(polys.back()));
    }
    return polys;
}

}  // namespace

const char*
op_name(NonlinearOp op)
{
    switch (op) {
      case NonlinearOp::kExp:
        return "exp";
      case NonlinearOp::kSilu:
        return "silu";
      case NonlinearOp::kGelu:
        return "gelu";
    }
    return "?";
}

double
exp_ref(double x)
{
    return std::exp(x);
}

double
sigmoid_ref(double x)
{
    // Branch on sign for numerical stability at large |x|.
    if (x >= 0.0) {
        return 1.0 / (1.0 + std::exp(-x));
    }
    const double e = std::exp(x);
    return e / (1.0 + e);
}

double
silu_ref(double x)
{
    return x * sigmoid_ref(x);
}

double
gelu_ref(double x)
{
    return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

double
gelu_tanh_ref(double x)
{
    const double inner =
        std::sqrt(2.0 / M_PI) * (x + 0.044715 * x * x * x);
    return 0.5 * x * (1.0 + std::tanh(inner));
}

double
eval_ref(NonlinearOp op, double x)
{
    switch (op) {
      case NonlinearOp::kExp:
        return exp_ref(x);
      case NonlinearOp::kSilu:
        return silu_ref(x);
      case NonlinearOp::kGelu:
        return gelu_ref(x);
    }
    return 0.0;
}

void
softmax_ref(std::span<const float> in, std::span<float> out)
{
    assert(in.size() == out.size());
    if (in.empty()) {
        return;
    }
    const float max = *std::max_element(in.begin(), in.end());
    double sum = 0.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const double e = std::exp(static_cast<double>(in[i]) - max);
        out[i] = static_cast<float>(e);
        sum += e;
    }
    const double inv = 1.0 / sum;
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<float>(out[i] * inv);
    }
}

std::vector<float>
softmax_ref(std::span<const float> in)
{
    std::vector<float> out(in.size());
    softmax_ref(in, out);
    return out;
}

std::vector<double>
taylor_coefficients(NonlinearOp op, int degree, double center)
{
    assert(degree >= 0);
    std::vector<double> coeffs(degree + 1, 0.0);
    double factorial = 1.0;

    switch (op) {
      case NonlinearOp::kExp: {
        const double ec = std::exp(center);
        for (int k = 0; k <= degree; ++k) {
            if (k > 0) factorial *= k;
            coeffs[k] = ec / factorial;
        }
        break;
      }
      case NonlinearOp::kSilu: {
        // silu = x * s; D^k(x s) = x D^k s + k D^{k-1} s.
        const auto polys = sigmoid_derivative_polys(degree);
        const double s = sigmoid_ref(center);
        for (int k = 0; k <= degree; ++k) {
            if (k > 0) factorial *= k;
            double dk = center * poly_eval(polys[k], s);
            if (k >= 1) {
                dk += k * poly_eval(polys[k - 1], s);
            }
            coeffs[k] = dk / factorial;
        }
        break;
      }
      case NonlinearOp::kGelu: {
        // gelu = 0.5 x (1 + phi), phi = erf(x / sqrt 2).
        // D^j g for g = exp(-x^2/2): q_{j+1} = q_j' - x q_j.
        const int n = degree;
        std::vector<std::vector<double>> q;
        q.push_back({1.0});
        for (int j = 1; j <= n; ++j) {
            std::vector<double> next = poly_derivative(q.back());
            next.resize(std::max(next.size(), q.back().size() + 1), 0.0);
            for (std::size_t i = 0; i < q.back().size(); ++i) {
                next[i + 1] -= q.back()[i];
            }
            q.push_back(next);
        }
        const double g = std::exp(-0.5 * center * center);
        const double scale = std::sqrt(2.0 / M_PI);
        // phi_derivs[j] = D^j phi at center.
        std::vector<double> phi(n + 1);
        phi[0] = std::erf(center / std::sqrt(2.0));
        for (int j = 1; j <= n; ++j) {
            phi[j] = scale * poly_eval(q[j - 1], center) * g;
        }
        for (int k = 0; k <= degree; ++k) {
            if (k > 0) factorial *= k;
            // D^k [0.5 x]: 0.5*center at k=0, 0.5 at k=1, 0 beyond.
            double dk = (k == 0) ? 0.5 * center : (k == 1 ? 0.5 : 0.0);
            // D^k [0.5 x phi] = 0.5 (x phi^{(k)} + k phi^{(k-1)}).
            double xphi = center * phi[k];
            if (k >= 1) {
                xphi += k * phi[k - 1];
            }
            dk += 0.5 * xphi;
            coeffs[k] = dk / factorial;
        }
        break;
      }
    }
    return coeffs;
}

}  // namespace nonlinear
}  // namespace mugi
