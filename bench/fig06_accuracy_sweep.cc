/**
 * @file
 * Figure 6: perplexity/loss heat-maps of the nonlinear approximation
 * schemes, swept over their configuration axes:
 *
 *   VLP    : LUT size (rows) x min/max exponent (cols)
 *   PWL    : segments (rows) x segment range (cols)
 *   Taylor : degrees (rows) x degree center (cols), softmax only
 *
 * Each cell is exp(cross-entropy) of the approximated model against
 * the exact model (see model/accuracy.h and the DESIGN.md
 * substitution notes); "Base" is the exact model's own score.  The
 * expected shape: a plateau of near-Base cells once the window /
 * range / degree covers the profiled input distribution, degrading
 * sharply outside it -- with VLP's plateau matching or beating the
 * baselines on concentrated distributions.
 */

#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "nonlinear/pwl.h"
#include "nonlinear/taylor.h"
#include "vlp/vlp_approximator.h"

using namespace mugi;

namespace {

/** The model's exact teacher passes, shared by every swept cell. */
using Teacher = std::span<const model::TeacherPass>;

double
eval_with(const model::TransformerModel& m, Teacher teacher,
          const model::NonlinearHooks& h)
{
    return model::evaluate_against_exact(m, h, teacher).perplexity;
}

void
sweep_vlp(const model::TransformerModel& m, Teacher teacher,
          nonlinear::NonlinearOp op)
{
    const std::vector<int> lut_sizes = {8, 9, 10, 11, 12};
    const std::vector<int> max_exps =
        op == nonlinear::NonlinearOp::kExp
            ? std::vector<int>{0, 1, 2, 3, 4}
            : std::vector<int>{-2, -1, 0, 1, 2};
    bench::print_subtitle(std::string("VLP ") + nonlinear::op_name(op) +
                          "  (rows: LUT size, cols: max exp)");
    std::vector<std::string> cols;
    for (const int e : max_exps) cols.push_back(std::to_string(e));
    bench::print_header("lut_size \\ max_exp", cols);
    for (const int size : lut_sizes) {
        std::vector<double> row;
        for (const int max_exp : max_exps) {
            vlp::VlpConfig config;
            config.op = op;
            config.lut_max_exp = max_exp;
            config.lut_min_exp = max_exp - size + 1;
            const vlp::VlpApproximator vlp(config);
            model::NonlinearHooks hooks;
            if (op == nonlinear::NonlinearOp::kExp) {
                hooks.softmax_exp = &vlp;
            } else {
                hooks.activation = &vlp;
            }
            row.push_back(eval_with(m, teacher, hooks));
        }
        bench::print_row(std::to_string(size), row, "%9.4f");
    }
}

void
sweep_pwl(const model::TransformerModel& m, Teacher teacher,
          nonlinear::NonlinearOp op)
{
    const std::vector<int> segments = {6, 10, 14, 18, 22};
    const std::vector<double> ranges =
        op == nonlinear::NonlinearOp::kExp
            ? std::vector<double>{-24, -20, -16, -12, -8}
            : std::vector<double>{3, 5, 7, 9, 11};
    bench::print_subtitle(std::string("PWL ") + nonlinear::op_name(op) +
                          "  (rows: segments, cols: segment range)");
    std::vector<std::string> cols;
    for (const double r : ranges) {
        cols.push_back(std::to_string(static_cast<int>(r)));
    }
    bench::print_header("segments \\ range", cols);
    for (const int s : segments) {
        std::vector<double> row;
        for (const double r : ranges) {
            nonlinear::PwlConfig config{op, s, r};
            const nonlinear::PwlApproximator pwl(config);
            model::NonlinearHooks hooks;
            if (op == nonlinear::NonlinearOp::kExp) {
                hooks.softmax_exp = &pwl;
            } else {
                hooks.activation = &pwl;
            }
            row.push_back(eval_with(m, teacher, hooks));
        }
        bench::print_row(std::to_string(s), row, "%9.4f");
    }
}

void
sweep_taylor(const model::TransformerModel& m, Teacher teacher)
{
    const std::vector<int> degrees = {5, 6, 7, 8, 9};
    const std::vector<double> centers = {-7, -6, -5, -4, -3};
    bench::print_subtitle(
        "Taylor softmax  (rows: degrees, cols: degree center)");
    std::vector<std::string> cols;
    for (const double c : centers) {
        cols.push_back(std::to_string(static_cast<int>(c)));
    }
    bench::print_header("degree \\ center", cols);
    for (const int d : degrees) {
        std::vector<double> row;
        for (const double c : centers) {
            nonlinear::TaylorConfig config{nonlinear::NonlinearOp::kExp,
                                           d, c};
            const nonlinear::TaylorApproximator taylor(config);
            model::NonlinearHooks hooks;
            hooks.softmax_exp = &taylor;
            row.push_back(eval_with(m, teacher, hooks));
        }
        bench::print_row(std::to_string(d), row, "%9.4f");
    }
}

}  // namespace

int
main()
{
    bench::print_title(
        "Figure 6: accuracy heat-maps (PPL vs exact teacher)");

    const std::vector<model::ModelConfig> fulls = {
        model::llama2_7b(), model::llama2_13b(), model::whisper_tiny(),
        model::swinv2_tiny(), model::vivit_base()};
    for (const model::ModelConfig& full : fulls) {
        const model::ModelConfig config =
            full.scaled_for_eval(2, 48, 128);
        const model::TransformerModel m(config, 131);
        model::EvalOptions options;
        options.num_sequences = 2;
        options.seq_len = 16;
        const std::vector<model::TeacherPass> teacher =
            model::teacher_passes(m, options);
        const double base =
            model::evaluate_base(m, teacher).perplexity;
        bench::print_subtitle(full.name);
        std::printf("Base PPL (exact nonlinearities): %.4f\n", base);

        sweep_vlp(m, teacher, nonlinear::NonlinearOp::kExp);
        sweep_vlp(m, teacher, config.activation());
        sweep_pwl(m, teacher, nonlinear::NonlinearOp::kExp);
        sweep_pwl(m, teacher, config.activation());
        sweep_taylor(m, teacher);
    }

    std::printf(
        "\nExpected shape (paper): VLP plateaus at ~Base once the LUT "
        "window covers\nthe profiled exponents and is competitive with "
        "or better than PWL/Taylor;\nmisplaced windows (low max exp) "
        "degrade sharply; Taylor degrades when the\ncenter drifts from "
        "the input cluster.\n");
    return 0;
}
