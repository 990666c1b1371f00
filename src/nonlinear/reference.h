#ifndef MUGI_NONLINEAR_REFERENCE_H_
#define MUGI_NONLINEAR_REFERENCE_H_

/**
 * @file
 * Exact software reference implementations of the nonlinear operations
 * Mugi approximates (Sec. 2.2.1, Eq. 1-4): exp/softmax, SiLU and GELU
 * (the erf form and the tanh approximation the paper quotes).
 * These are the ground truth every approximator is measured against.
 */

#include <span>
#include <vector>

namespace mugi {
namespace nonlinear {

/** The nonlinear operations supported by the Mugi array. */
enum class NonlinearOp {
    kExp,   ///< exp(x); the inner operation of softmax (Eq. 1).
    kSilu,  ///< x * sigmoid(x) (Eq. 2).
    kGelu,  ///< 0.5 x (1 + erf(x / sqrt 2)) (Eq. 3).
};

/** Human-readable name of @p op ("exp", "silu", "gelu"). */
const char* op_name(NonlinearOp op);

/** Exact exp. */
double exp_ref(double x);

/** Exact logistic sigmoid. */
double sigmoid_ref(double x);

/** Exact SiLU (Eq. 2). */
double silu_ref(double x);

/** Exact GELU, erf form (Eq. 3). */
double gelu_ref(double x);

/** GELU tanh approximation (Eq. 4). */
double gelu_tanh_ref(double x);

/** Dispatch to the exact implementation of @p op. */
double eval_ref(NonlinearOp op, double x);

/**
 * Numerically stable softmax (Eq. 1): inputs are shifted by their
 * maximum before exponentiation, matching both the software convention
 * and the hardware dataflow (Sec. 4.1).
 *
 * @param in Logits.
 * @param out Probabilities; must have the same extent as @p in.
 */
void softmax_ref(std::span<const float> in, std::span<float> out);

/** Convenience overload returning a fresh vector. */
std::vector<float> softmax_ref(std::span<const float> in);

/**
 * Taylor coefficients of @p op around @p center, exact derivatives
 * (not finite differences): coefficient k multiplies (x - center)^k.
 *
 * exp uses the closed form; SiLU uses the sigmoid derivative
 * recurrence s' = s - s^2 carried as a polynomial in s; GELU uses the
 * Gaussian derivative recurrence q_{j+1} = q_j' - x q_j carried as a
 * polynomial in x.  This is the coefficient set the Taylor baseline
 * hardware (Sec. 5.2.2) would precompute.
 */
std::vector<double> taylor_coefficients(NonlinearOp op, int degree,
                                        double center);

}  // namespace nonlinear
}  // namespace mugi

#endif  // MUGI_NONLINEAR_REFERENCE_H_
