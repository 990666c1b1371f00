/**
 * @file
 * Figure 17: NoC-level normalized throughput, energy efficiency and
 * power efficiency for 4x4 and 8x8 meshes (tensor core: single node,
 * 2x1 and 2x2), geometric mean over the Llama 2 family, batch 8,
 * sequence 4096.  Normalized to the 4x4 SA(16) mesh.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/workload.h"
#include "sim/performance_model.h"

using namespace mugi;

namespace {

struct Metrics {
    double throughput = 0.0;
    double energy_eff = 0.0;
    double power_eff = 0.0;
};

Metrics
geomean(const sim::DesignConfig& d)
{
    double t = 1.0, e = 1.0, p = 1.0;
    const auto family = model::llama_family();
    for (const model::ModelConfig& m : family) {
        const model::Workload w =
            model::build_decode_workload(m, 8, 4096);
        const sim::PerfReport r = sim::run_workload(d, w);
        t *= r.throughput_tokens_per_s;
        e *= r.energy_efficiency;
        p *= r.power_efficiency;
    }
    const double inv = 1.0 / static_cast<double>(family.size());
    return {std::pow(t, inv), std::pow(e, inv), std::pow(p, inv)};
}

}  // namespace

int
main()
{
    bench::print_title(
        "Figure 17: NoC-level comparison (normalized to 4x4 SA(16))");

    const Metrics base = geomean(sim::make_systolic(16).with_noc(4, 4));

    struct Entry {
        const char* group;
        sim::DesignConfig design;
    };
    const std::vector<Entry> entries = {
        // Group 1: single-node / scaled-up anchors (64/8/S column).
        {"SN", sim::make_mugi(64)},
        {"SN", sim::make_carat(64)},
        {"SN", sim::make_systolic(8)},
        {"SN", sim::make_simd(8)},
        {"SN", sim::make_tensor()},
        // Group 2: 4x4 meshes (128/16/2 column; tensor 2x1).
        {"4x4", sim::make_mugi(128).with_noc(4, 4)},
        {"4x4", sim::make_carat(128).with_noc(4, 4)},
        {"4x4", sim::make_systolic(16).with_noc(4, 4)},
        {"4x4", sim::make_systolic(16, true).with_noc(4, 4)},
        {"4x4", sim::make_simd(16).with_noc(4, 4)},
        {"4x4", sim::make_simd(16, true).with_noc(4, 4)},
        {"4x4", sim::make_tensor().with_noc(2, 1)},
        // Group 3: 8x8 meshes (256/SU/4 column; tensor 2x2,
        // scaled-up SA/SD 64).
        {"8x8", sim::make_mugi(256).with_noc(8, 8)},
        {"8x8", sim::make_carat(256).with_noc(8, 8)},
        {"8x8", sim::make_systolic(64)},
        {"8x8", sim::make_simd(64)},
        {"8x8", sim::make_tensor().with_noc(2, 2)},
    };

    bench::print_header("design", {"norm-thr", "norm-Eeff",
                                   "norm-Peff"});
    for (const Entry& e : entries) {
        const Metrics m = geomean(e.design);
        bench::print_row(std::string(e.group) + " " + e.design.name,
                         {m.throughput / base.throughput,
                          m.energy_eff / base.energy_eff,
                          m.power_eff / base.power_eff},
                         "%9.2f");
    }

    std::printf(
        "\nExpected shape (paper): Mugi meshes lead every group "
        "(~2x the SA mesh\nat equal NoC shape); NoC scaling is "
        "near-linear for all designs; the\nscaled-up SA/SD(64) in the "
        "8x8 group fall far behind the meshes due to\nsmall-batch "
        "under-utilization; tensor cores trade throughput for power\n"
        "efficiency.\n");
    return 0;
}
