/**
 * @file
 * Figure 12: iso-area comparison of projection, attention and FFN
 * GEMMs on Llama 2 (7B, 13B, 70B, 70B-GQA), batch 8, sequence 4096.
 * Designs: Mugi(128/256), Carat(128/256), SA(16), SA-F(16), SD(16),
 * SD-F(16); all normalized to the 16x16 systolic array.
 */

#include <cstdio>
#include <vector>

#include "arch/tech_model.h"
#include "bench_util.h"
#include "model/workload.h"
#include "sim/performance_model.h"

using namespace mugi;

namespace {

struct ClassMetrics {
    double throughput = 0.0;  ///< MACs per second for the class.
    double energy_eff = 0.0;
    double power_eff = 0.0;
};

ClassMetrics
gemm_class_metrics(const sim::DesignConfig& d,
                   const model::ModelConfig& m, model::OpClass cls)
{
    const model::Workload w = model::build_decode_workload(m, 8, 4096);
    double cycles = 0.0;
    double energy_pj = 0.0;
    double macs = 0.0;
    for (const model::GemmOp& g : w.gemms) {
        if (g.cls != cls) continue;
        const sim::OpCost cost = sim::gemm_cost(d, g);
        cycles += cost.cycles;
        energy_pj += cost.dynamic_energy_pj;
        macs += static_cast<double>(g.macs());
    }
    const double runtime_s = cycles * arch::kCycleNs * 1e-9;
    const double leak_j =
        sim::node_leakage_mw(d) * 1e-3 * runtime_s;
    ClassMetrics metrics;
    metrics.throughput = macs / runtime_s;
    const double power = (energy_pj * 1e-12 + leak_j) / runtime_s;
    metrics.power_eff = metrics.throughput / power;
    metrics.energy_eff = metrics.throughput * metrics.power_eff;
    return metrics;
}

}  // namespace

int
main()
{
    bench::print_title(
        "Figure 12: iso-area GEMM comparison (normalized to SA(16))");

    struct ModelEntry {
        const char* label;
        model::ModelConfig config;
    };
    std::vector<ModelEntry> models = {
        {"7B", model::llama2_7b()},
        {"13B", model::llama2_13b()},
        {"70B-GQA", model::llama2_70b()},
    };
    // "70B" without GQA: same shapes, KV heads = heads.
    model::ModelConfig mha70 = model::llama2_70b();
    mha70.num_kv_heads = mha70.num_heads;
    mha70.name = "llama2-70b-mha";
    models.insert(models.begin() + 2, {"70B", mha70});

    const std::vector<std::pair<const char*, sim::DesignConfig>>
        designs = {
            {"Mugi(128)", sim::make_mugi(128)},
            {"Mugi(256)", sim::make_mugi(256)},
            {"Carat(128)", sim::make_carat(128)},
            {"Carat(256)", sim::make_carat(256)},
            {"SA(16)", sim::make_systolic(16)},
            {"SA-F(16)", sim::make_systolic(16, true)},
            {"SD(16)", sim::make_simd(16)},
            {"SD-F(16)", sim::make_simd(16, true)},
        };

    for (const auto& [cls, cls_label] :
         std::vector<std::pair<model::OpClass, const char*>>{
             {model::OpClass::kProjection, "Projection"},
             {model::OpClass::kAttention, "Attention"},
             {model::OpClass::kFfn, "FFN"}}) {
        for (const char* metric :
             {"throughput", "energy-eff", "power-eff"}) {
            bench::print_subtitle(std::string(cls_label) + " " +
                                  metric + " (normalized to SA(16))");
            std::vector<std::string> cols;
            for (const ModelEntry& m : models) cols.push_back(m.label);
            bench::print_header("design", cols);
            for (const auto& [dlabel, design] : designs) {
                std::vector<double> row;
                for (const ModelEntry& m : models) {
                    const ClassMetrics base = gemm_class_metrics(
                        sim::make_systolic(16), m.config, cls);
                    const ClassMetrics got =
                        gemm_class_metrics(design, m.config, cls);
                    double v = 0.0;
                    if (std::string(metric) == "throughput") {
                        v = got.throughput / base.throughput;
                    } else if (std::string(metric) == "energy-eff") {
                        v = got.energy_eff / base.energy_eff;
                    } else {
                        v = got.power_eff / base.power_eff;
                    }
                    row.push_back(v);
                }
                bench::print_row(dlabel, row, "%9.2f");
            }
        }
    }

    std::printf(
        "\nExpected shape (paper): Mugi consistently above SA/SD on "
        "throughput and\nefficiency for projection/FFN (~2x at 256 "
        "rows); attention gains are\nlargest with GQA (70B-GQA "
        "column), where grouped queries fill Mugi's 8\ncolumns; Carat "
        "tracks Mugi's throughput with lower efficiency.\n");
    return 0;
}
