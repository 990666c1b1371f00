/**
 * @file
 * Ablation bench for the design choices DESIGN.md calls out (not a
 * paper figure; supports the Sec. 3/4 design rationale):
 *
 *  A. sliding-window size 4 / 8 / 16 -- accuracy vs mapping latency;
 *  B. mantissa bits 2 / 3 / 4 -- accuracy vs temporal sweep length;
 *  C. window policy (coverage / max-anchored / min-anchored / fixed)
 *     -- the value-centric choice of Sec. 3.3;
 *  D. buffer minimization -- Mugi vs Carat FIFO area at matched
 *     array sizes (Sec. 4.2's 4.5x claim);
 *  E. Mugi-L -- dedicated-LUT nonlinear vs temporal VLP (Sec. 6.3.1).
 */

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.h"
#include "sim/cost_model.h"
#include "vlp/vlp_approximator.h"

using namespace mugi;

namespace {

/** Mean |relative error| of an exp approximator over a test set. */
double
mean_rel_error(const vlp::VlpApproximator& approx)
{
    std::mt19937 rng(811);
    std::uniform_real_distribution<float> dist(-14.0f, -0.02f);
    double sum = 0.0;
    const int n = 20000;
    std::vector<float> in(n), out(n);
    for (float& v : in) v = dist(rng);
    approx.apply_batch(in, out);
    for (int i = 0; i < n; ++i) {
        const double exact = std::exp(static_cast<double>(in[i]));
        sum += std::fabs(out[i] - exact) / exact;
    }
    return sum / n;
}

vlp::VlpConfig
base_config()
{
    vlp::VlpConfig config;
    config.op = nonlinear::NonlinearOp::kExp;
    config.lut_min_exp = -7;
    config.lut_max_exp = 4;
    config.mapping_rows = 128;
    return config;
}

}  // namespace

int
main()
{
    bench::print_title("Ablations of Mugi's design choices");

    bench::print_subtitle(
        "A. sliding-window size (exp, LUT [-7,4], coverage policy)");
    bench::print_header("window", {"mean|rel err|", "map latency"});
    for (const int w : {4, 8, 16}) {
        vlp::VlpConfig config = base_config();
        config.window_size = w;
        const vlp::VlpApproximator approx(config);
        bench::print_row(std::to_string(w),
                         {mean_rel_error(approx),
                          static_cast<double>(
                              approx.mapping_latency_cycles())},
                         "%13.4f");
    }

    bench::print_subtitle(
        "B. mantissa bits (exp; sweep = 2^bits cycles)");
    bench::print_header("bits", {"mean|rel err|", "sweep cyc"});
    for (const int bits : {2, 3, 4}) {
        vlp::VlpConfig config = base_config();
        config.mantissa_bits = bits;
        const vlp::VlpApproximator approx(config);
        bench::print_row(std::to_string(bits),
                         {mean_rel_error(approx),
                          static_cast<double>(1 << bits)},
                         "%13.4f");
    }

    bench::print_subtitle("C. window policy (window 8, LUT [-7,4])");
    bench::print_header("policy", {"mean|rel err|"});
    for (const vlp::WindowPolicy policy :
         {vlp::WindowPolicy::kCoverage, vlp::WindowPolicy::kMaxAnchored,
          vlp::WindowPolicy::kMinAnchored,
          vlp::WindowPolicy::kFixedTop}) {
        vlp::VlpConfig config = base_config();
        config.policy = policy;
        const vlp::VlpApproximator approx(config);
        bench::print_row(vlp::window_policy_name(policy),
                         {mean_rel_error(approx)}, "%13.4f");
    }

    bench::print_subtitle(
        "D. buffer minimization: FIFO area, Mugi vs Carat (mm^2)");
    bench::print_header("H", {"mugi-fifo", "carat-fifo", "ratio"});
    for (const std::size_t h : {64, 128, 256, 512}) {
        const double mugi = sim::node_area(sim::make_mugi(h)).fifo;
        const double carat = sim::node_area(sim::make_carat(h)).fifo;
        bench::print_row(std::to_string(h),
                         {mugi, carat, carat / mugi}, "%10.4f");
    }

    bench::print_subtitle(
        "E. Mugi vs Mugi-L: nonlinear hardware area (mm^2)");
    bench::print_header("H", {"mugi-nonlin", "mugi-l-nonlin",
                              "array-total-L/array-total"});
    for (const std::size_t h : {128, 256}) {
        const sim::AreaBreakdown m =
            sim::node_area(sim::make_mugi(h));
        const sim::AreaBreakdown l =
            sim::node_area(sim::make_mugi_l(h));
        bench::print_row(std::to_string(h),
                         {m.nonlinear, l.nonlinear,
                          l.array_total() / m.array_total()},
                         "%10.4f");
    }

    std::printf(
        "\nReading: window 8 + 3-bit mantissa is the knee "
        "(doubling either buys\nlittle accuracy for 2x latency); the "
        "coverage policy dominates anchored\nand fixed windows; "
        "Carat's FIFO area runs ~4x Mugi's and grows with H;\n"
        "Mugi-L pays a multiple of the whole Mugi array in LUT "
        "hardware.\n");
    return 0;
}
