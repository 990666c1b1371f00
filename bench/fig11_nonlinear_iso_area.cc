/**
 * @file
 * Figure 11: iso-area comparison of nonlinear-operation execution
 * (softmax, SiLU) across sequence lengths 128..4096 at batch 8,
 * geometric-mean over the Llama 2 family.  Designs: Mugi(128/256),
 * Carat(128/256), precise vector array VA-FP(16), and approximate
 * vector arrays VA-AP Taylor/PWL(16).  All results normalized to
 * VA-FP(16).  Energy efficiency follows the paper's metric:
 * throughput / energy-per-element (= throughput^2 / power).
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/workload.h"
#include "sim/performance_model.h"

using namespace mugi;

namespace {

model::NonlinearWork
softmax_work(const model::ModelConfig& m, std::size_t batch,
             std::size_t seq)
{
    model::NonlinearWork w;
    w.name = "softmax";
    w.op = nonlinear::NonlinearOp::kExp;
    w.is_softmax = true;
    w.row_length = seq;
    w.elements = m.num_layers * m.num_heads * batch * seq;
    return w;
}

model::NonlinearWork
silu_work(const model::ModelConfig& m, std::size_t batch)
{
    model::NonlinearWork w;
    w.name = "silu";
    w.op = nonlinear::NonlinearOp::kSilu;
    w.elements = m.num_layers * batch * m.d_ff;
    return w;
}

struct Metrics {
    double throughput = 1.0;
    double energy_eff = 1.0;
    double power_eff = 1.0;
};

Metrics
geomean_over_llama(const sim::DesignConfig& d, bool softmax,
                   std::size_t batch, std::size_t seq)
{
    Metrics g;
    double t = 1.0, e = 1.0, p = 1.0;
    const auto family = model::llama_family();
    for (const model::ModelConfig& m : family) {
        const model::NonlinearWork w =
            softmax ? softmax_work(m, batch, seq) : silu_work(m, batch);
        const sim::NonlinearPerf perf = sim::run_nonlinear_only(d, w);
        t *= perf.elements_per_s;
        e *= perf.energy_efficiency;
        p *= perf.power_efficiency;
    }
    const double inv = 1.0 / static_cast<double>(family.size());
    g.throughput = std::pow(t, inv);
    g.energy_eff = std::pow(e, inv);
    g.power_eff = std::pow(p, inv);
    return g;
}

}  // namespace

int
main()
{
    bench::print_title(
        "Figure 11: iso-area nonlinear comparison (normalized to "
        "VA-FP(16))");

    struct Entry {
        const char* label;
        sim::DesignConfig design;
        bool softmax;
    };
    const std::vector<Entry> entries = {
        {"Mugi SM (128)", sim::make_mugi(128), true},
        {"Mugi SiLU (128)", sim::make_mugi(128), false},
        {"Mugi SM (256)", sim::make_mugi(256), true},
        {"Mugi SiLU (256)", sim::make_mugi(256), false},
        {"Carat SM (128)", sim::make_carat(128), true},
        {"Carat SiLU (128)", sim::make_carat(128), false},
        {"Carat SM (256)", sim::make_carat(256), true},
        {"Carat SiLU (256)", sim::make_carat(256), false},
        {"VA-FP SM (16)",
         sim::make_vector_array(16, sim::NonlinearScheme::kPrecise),
         true},
        {"VA-FP SiLU (16)",
         sim::make_vector_array(16, sim::NonlinearScheme::kPrecise),
         false},
        {"VA-AP Taylor SM(16)",
         sim::make_vector_array(16, sim::NonlinearScheme::kTaylor),
         true},
        {"VA-AP PWL SM (16)",
         sim::make_vector_array(16, sim::NonlinearScheme::kPwl), true},
        {"VA-AP PWL SiLU(16)",
         sim::make_vector_array(16, sim::NonlinearScheme::kPwl),
         false},
    };

    const std::vector<std::size_t> seq_lens = {128, 256, 512, 1024,
                                               2048, 4096};
    std::vector<std::string> cols;
    for (const std::size_t s : seq_lens) cols.push_back(std::to_string(s));

    for (const char* metric :
         {"throughput", "energy-eff", "power-eff"}) {
        bench::print_subtitle(std::string("normalized ") + metric +
                              " vs sequence length");
        bench::print_header("design", cols);
        for (const Entry& e : entries) {
            std::vector<double> row;
            for (const std::size_t seq : seq_lens) {
                const Metrics base = geomean_over_llama(
                    sim::make_vector_array(
                        16, sim::NonlinearScheme::kPrecise),
                    e.softmax, 8, seq);
                const Metrics m =
                    geomean_over_llama(e.design, e.softmax, 8, seq);
                if (std::string(metric) == "throughput") {
                    row.push_back(m.throughput / base.throughput);
                } else if (std::string(metric) == "energy-eff") {
                    row.push_back(m.energy_eff / base.energy_eff);
                } else {
                    row.push_back(m.power_eff / base.power_eff);
                }
            }
            bench::print_row(e.label, row, "%9.2f");
        }
    }

    std::printf(
        "\nExpected shape (paper): Mugi ~45x throughput, ~481x "
        "(softmax) / ~668x\n(SiLU) energy efficiency and ~10.7x/14.8x "
        "power efficiency vs VA-FP(16);\n~5x throughput vs PWL and "
        "~10x vs Taylor; flat across sequence lengths.\n");
    return 0;
}
