#ifndef MUGI_VLP_VLP_APPROXIMATOR_H_
#define MUGI_VLP_VLP_APPROXIMATOR_H_

/**
 * @file
 * The paper's primary contribution: VLP nonlinear approximation
 * (Sec. 3).  Functionally, VLP performs *input approximation* in a
 * *value-centric* manner:
 *
 *  1. input field split: the BF16 input is split into S / M / E and
 *     the mantissa is rounded to 3 bits (Sec. 3.2);
 *  2. value reuse: LUT rows (all exponents of one sign+mantissa) are
 *     streamed across the array;
 *  3. mantissa temporal subscription latches the matching row;
 *  4. exponent temporal subscription selects the element inside the
 *     per-mapping sliding window (Sec. 3.3).
 *
 * The output equals the exact function evaluated at the rounded,
 * windowed grid point -- "a precise output for an approximate input".
 * Inputs whose exponent falls below the window are treated as zero
 * (E-proc underflow); overflow behaviour is operation-specific
 * (Sec. 4: softmax clamps into the LUT, SiLU/GELU pass the value
 * through).
 */

#include <memory>
#include <span>
#include <string>

#include "nonlinear/approximator.h"
#include "vlp/nonlinear_lut.h"
#include "vlp/sliding_window.h"

namespace mugi {
namespace vlp {

/** Full configuration of a VLP nonlinear approximator. */
struct VlpConfig {
    nonlinear::NonlinearOp op = nonlinear::NonlinearOp::kExp;
    int mantissa_bits = 3;  ///< Rounded mantissa width (array width 2^mb).
    int window_size = 8;    ///< Sliding-window size = array width.
    int lut_min_exp = -3;   ///< Full LUT window bottom.
    int lut_max_exp = 4;    ///< Full LUT window top.
    WindowPolicy policy = WindowPolicy::kCoverage;
    /**
     * Inputs per mapping; the sliding window is re-chosen for each
     * group of this many inputs (one array load, Sec. 3.3).
     */
    std::size_t mapping_rows = 128;
    /** Round outputs to BF16 (the LUT stores BF16 entries). */
    bool round_output = true;

    /** LutConfig equivalent of this configuration. */
    LutConfig lut_config() const;
};

/**
 * The VLP (Mugi) nonlinear approximator.
 *
 * Thread-safety guarantee: a constructed VlpApproximator is deeply
 * immutable.  Its only state is the configuration and the
 * precomputed LUT, both fixed at construction; apply(),
 * apply_batch() and apply_with_window() are pure functions of that
 * state (the per-mapping sliding window is chosen on the stack via
 * choose_window, which is a stateless free function, and the LUT is
 * only ever read).  One instance may therefore be shared by any
 * number of concurrent sessions/threads without synchronization --
 * this is what lets serve::Engine hand its one kernel per op to
 * every request on a node (tests/vlp/vlp_approximator_test.cc runs
 * one kernel on 8 threads, under TSan in CI).  Any future change
 * that adds caching or other mutable members must preserve this
 * guarantee (or the engine must stop sharing instances).
 */
class VlpApproximator final : public nonlinear::NonlinearApproximator {
  public:
    explicit VlpApproximator(const VlpConfig& config);

    nonlinear::NonlinearOp op() const override { return config_.op; }
    std::string name() const override { return "vlp"; }

    /**
     * Single-element application.  The window is chosen for this one
     * value (degenerate mapping), so elementwise use behaves like a
     * best-case sliding window.
     */
    float apply(float x) const override;

    /**
     * Batch application with per-mapping sliding windows: inputs are
     * processed in groups of mapping_rows, each with its own window.
     */
    void apply_batch(std::span<const float> in,
                     std::span<float> out) const override;

    /** Apply with an explicitly chosen window (used by tests/tuning). */
    float apply_with_window(float x, const WindowChoice& window) const;

    /**
     * Amortized cycles per element on one array row: the mantissa
     * sweep is 2^mb cycles and mappings are fully pipelined
     * (Fig. 10: new inputs enter at cycle 8).
     */
    double
    cycles_per_element() const override
    {
        return static_cast<double>(1 << config_.mantissa_bits);
    }

    /**
     * Latency of a single (un-pipelined) mapping: mantissa sweep plus
     * exponent subscription (Sec. 3.1: "the full VLP approximation
     * requires the total duration of both").
     */
    std::uint64_t
    mapping_latency_cycles() const
    {
        return (1ull << config_.mantissa_bits) + config_.window_size;
    }

    const VlpConfig& config() const { return config_; }
    const NonlinearLut& lut() const { return lut_; }

  private:
    /** The single deepest LUT entry softmax overflow clamps to. */
    float apply_overflow_entry(const WindowChoice& window) const;

    VlpConfig config_;
    NonlinearLut lut_;
};

/**
 * Convenience: a VLP approximator with the paper's default geometry
 * (3-bit mantissa, window 8) and a full LUT window of
 * [max_exp - lut_size + 1, max_exp] as swept in Fig. 6.
 */
std::unique_ptr<VlpApproximator> make_vlp(nonlinear::NonlinearOp op,
                                          int lut_size, int max_exp);

}  // namespace vlp
}  // namespace mugi

#endif  // MUGI_VLP_VLP_APPROXIMATOR_H_
