/**
 * @file
 * Figure 13: array- and NoC-level area and power breakdown of
 * Mugi(128/256), Mugi-L(128/256), Carat(128/256), SA-F(8/16) and
 * SD-F(8/16).  Array-level categories: Acc / FIFO / PE / Nonlinear /
 * Vector / TC / control; node level adds SRAM; the NoC (4x4) level
 * adds router area.  Power uses the Llama 2 70B decode workload
 * (batch 8, seq 4096).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/workload.h"
#include "sim/cost_model.h"
#include "sim/performance_model.h"

using namespace mugi;

int
main()
{
    bench::print_title("Figure 13: area and power breakdown");
    const model::Workload w =
        model::build_decode_workload(model::llama2_70b(), 8, 4096);

    const std::vector<std::pair<const char*, sim::DesignConfig>>
        designs = {
            {"Mugi(128)", sim::make_mugi(128)},
            {"Mugi(256)", sim::make_mugi(256)},
            {"Mugi-L(128)", sim::make_mugi_l(128)},
            {"Mugi-L(256)", sim::make_mugi_l(256)},
            {"Carat(128)", sim::make_carat(128)},
            {"Carat(256)", sim::make_carat(256)},
            {"SA-F(8)", sim::make_systolic(8, true)},
            {"SA-F(16)", sim::make_systolic(16, true)},
            {"SD-F(8)", sim::make_simd(8, true)},
            {"SD-F(16)", sim::make_simd(16, true)},
        };

    bench::print_subtitle("array-level area breakdown (mm^2)");
    bench::print_header("design", {"acc", "fifo", "pe", "nonlin",
                                   "vector", "tc", "ctrl", "array"});
    for (const auto& [label, d] : designs) {
        const sim::AreaBreakdown a = sim::node_area(d);
        bench::print_row(label,
                         {a.acc, a.fifo, a.pe, a.nonlinear, a.vector,
                          a.tc, a.control, a.array_total()},
                         "%9.4f");
    }

    bench::print_subtitle("node-level area (mm^2) and power (mW)");
    bench::print_header("design",
                        {"array", "sram", "total", "power_mW"});
    for (const auto& [label, d] : designs) {
        const sim::AreaBreakdown a = sim::node_area(d);
        const sim::PerfReport r = sim::run_workload(d, w);
        bench::print_row(label, {a.array_total(), a.sram, a.total(),
                                 r.power_w * 1000.0},
                         "%9.3f");
    }

    bench::print_subtitle("NoC (4x4) level area (mm^2) / power (W)");
    bench::print_header("design", {"array", "sram", "noc", "total",
                                   "power_W"});
    for (const auto& [label, d] : designs) {
        const sim::DesignConfig mesh = d.with_noc(4, 4);
        const sim::AreaBreakdown a = sim::node_area(mesh);
        const sim::PerfReport r = sim::run_workload(mesh, w);
        bench::print_row(label,
                         {16.0 * a.array_total(), 16.0 * a.sram,
                          16.0 * a.noc, sim::total_area_mm2(mesh),
                          r.power_w},
                         "%9.3f");
    }

    std::printf(
        "\nExpected shape (paper): Mugi(128) array ~0.5 mm^2 / "
        "~117 mW node power;\nCarat's FIFO bar dominates its array "
        "(the 4.5x buffer-minimization\nablation); Mugi-L adds a "
        "large nonlinear (LUT) bar; SA-F/SD-F arrays are\nMAC-"
        "dominated and scale quadratically.\n");
    return 0;
}
