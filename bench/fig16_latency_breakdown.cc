/**
 * @file
 * Figure 16: normalized end-to-end latency breakdown
 * (projection / attention / FFN / nonlinear) across Llama 2 sizes,
 * batch 8, sequence 4096.  Designs M/C/S/T/P as in Fig. 15 (S covers
 * systolic/SIMD).  Latencies normalized per model to Mugi's total.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/workload.h"
#include "sim/event_sim.h"
#include "serve/engine.h"

using namespace mugi;

int
main()
{
    bench::print_title("Figure 16: end-to-end latency breakdown");

    std::vector<std::pair<const char*, model::ModelConfig>> models = {
        {"7B", model::llama2_7b()},
        {"13B", model::llama2_13b()},
        {"70B-GQA", model::llama2_70b()},
    };
    model::ModelConfig mha70 = model::llama2_70b();
    mha70.num_kv_heads = mha70.num_heads;
    mha70.name = "llama2-70b-mha";
    models.insert(models.begin() + 2, {"70B", mha70});

    auto systolic_taylor = sim::make_systolic(16);
    systolic_taylor.nonlinear = sim::NonlinearScheme::kTaylor;
    systolic_taylor.name = "SA16-Taylor";
    auto systolic_pwl = sim::make_systolic(16);
    systolic_pwl.nonlinear = sim::NonlinearScheme::kPwl;
    systolic_pwl.name = "SA16-PWL";

    const std::vector<std::pair<const char*, sim::DesignConfig>>
        designs = {
            {"M (Mugi 256)", sim::make_mugi(256)},
            {"C (Carat 256)", sim::make_carat(256)},
            {"S (SA 16)", sim::make_systolic(16)},
            {"T (SA16+Taylor)", systolic_taylor},
            {"P (SA16+PWL)", systolic_pwl},
        };

    for (const auto& [mlabel, mconfig] : models) {
        const model::Workload w =
            model::build_decode_workload(mconfig, 8, 4096);
        const double norm =
            sim::run_workload(sim::make_mugi(256), w).total_cycles;

        bench::print_subtitle(std::string("Llama 2 ") + mlabel +
                              " (cycles normalized to Mugi total)");
        bench::print_header("design", {"proj", "attn", "ffn",
                                       "nonlin", "total", "ev-sim"});
        for (const auto& [dlabel, d] : designs) {
            const serve::SystemReport report =
                serve::Engine(d).evaluate(w);
            const sim::PerfReport& r = report.perf;
            const sim::EventSimResult& ev = report.event_sim;
            std::vector<double> row;
            for (const model::OpClass cls :
                 {model::OpClass::kProjection,
                  model::OpClass::kAttention, model::OpClass::kFfn,
                  model::OpClass::kNonlinear}) {
                row.push_back(r.cycles_by_class.count(cls)
                                  ? r.cycles_by_class.at(cls) / norm
                                  : 0.0);
            }
            row.push_back(r.total_cycles / norm);
            row.push_back(ev.makespan_cycles / norm);
            bench::print_row(dlabel, row, "%9.3f");
        }
    }

    std::printf(
        "\nExpected shape (paper): Mugi nearly halves projection/FFN "
        "latency vs the\nbaselines and keeps a slight edge on "
        "attention; its nonlinear latency is\nalmost invisible, while "
        "Carat's is ~3x Mugi's and the precise/Taylor/PWL\nbars are "
        "clearly visible.  The event-sim column cross-checks the\n"
        "analytic totals.\n");
    return 0;
}
