/**
 * @file
 * Sustainability report (Sec. 2.4, 6.3.2): operational vs embodied
 * carbon of serving Llama-2 models on Mugi and the baselines, under
 * the ACT-style model of Eq. 6/7, including a sensitivity sweep over
 * grid carbon intensity.  Each design's performance report
 * (sim::run_workload) feeds carbon::assess.
 *
 * Build & run:  ./build/examples/carbon_report
 */

#include <cstdio>
#include <vector>

#include "carbon/carbon_model.h"
#include "model/workload.h"
#include "sim/performance_model.h"

using namespace mugi;

int
main()
{
    const std::vector<std::pair<const char*, sim::DesignConfig>>
        designs = {
            {"Mugi(256)", sim::make_mugi(256)},
            {"Carat(256)", sim::make_carat(256)},
            {"SA(16)", sim::make_systolic(16)},
            {"SD(16)", sim::make_simd(16)},
        };

    for (const model::ModelConfig& m :
         {model::llama2_7b(), model::llama2_70b()}) {
        std::printf("\n%s decode, batch 8, context 4096 "
                    "(gCO2e per million tokens)\n",
                    m.name.c_str());
        std::printf("%-12s %12s %12s %12s %10s\n", "design",
                    "operational", "embodied", "total",
                    "vs Mugi");
        double mugi_total = 0.0;
        for (const auto& [label, d] : designs) {
            const carbon::CarbonReport c = carbon::assess(
                d, sim::run_workload(
                       d, model::build_decode_workload(m, 8, 4096)));
            if (mugi_total == 0.0) {
                mugi_total = c.total_g_per_token();
            }
            std::printf("%-12s %12.2f %12.2f %12.2f %9.2fx\n", label,
                        c.operational_g_per_token * 1e6,
                        c.embodied_g_per_token * 1e6,
                        c.total_g_per_token() * 1e6,
                        c.total_g_per_token() / mugi_total);
        }
    }

    // Sensitivity: a cleaner grid shifts the operational/embodied
    // balance toward embodied (Sec. 2.4: "embodied carbon is taking
    // over"), which favours area-lean designs like Mugi even more.
    std::printf("\nGrid-intensity sensitivity (Llama-2 70B, "
                "Mugi(256)):\n");
    std::printf("%-18s %12s %12s %10s\n", "grid gCO2e/kWh",
                "operational", "embodied", "embodied%%");
    const sim::DesignConfig mugi = sim::make_mugi(256);
    const sim::PerfReport perf = sim::run_workload(
        mugi,
        model::build_decode_workload(model::llama2_70b(), 8, 4096));
    for (const double ci : {700.0, 475.0, 200.0, 50.0}) {
        carbon::CarbonParams params;
        params.carbon_intensity_g_per_kwh = ci;
        const carbon::CarbonReport c =
            carbon::assess(mugi, perf, params);
        std::printf("%-18.0f %12.2f %12.2f %9.1f%%\n", ci,
                    c.operational_g_per_token * 1e6,
                    c.embodied_g_per_token * 1e6,
                    100.0 * c.embodied_g_per_token /
                        c.total_g_per_token());
    }
    return 0;
}
