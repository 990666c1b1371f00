#include "sim/performance_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "arch/tech_model.h"
#include "vlp/vlp_gemm.h"

namespace mugi {
namespace sim {
namespace {

double
ceil_div(double a, double b)
{
    return std::ceil(a / b);
}

/** Compute-bound cycles of one GEMM on one node. */
double
gemm_compute_cycles(const DesignConfig& d, const model::GemmOp& op)
{
    const double m = static_cast<double>(op.m);
    const double n = static_cast<double>(op.n);
    const double k = static_cast<double>(op.k);
    const double count = static_cast<double>(op.count);

    if (d.is_vlp()) {
        // Transposed Mugi mapping (Sec. 4.2): weights (n) on H rows,
        // activations (m) on the W columns.  The integer product is
        // below 2^53, so the double is exact.
        return count * static_cast<double>(vlp::vlp_gemm_mugi_cycles(
                           op.n, op.m, op.k,
                           static_cast<int>(d.array_rows),
                           static_cast<int>(d.array_cols)));
    }
    if (d.kind == DesignKind::kTensor) {
        // Fully pipelined 8x16x16 MAC block per cycle.
        const double tm = static_cast<double>(d.array_rows);
        const double tn = static_cast<double>(d.array_cols);
        const double tk = static_cast<double>(d.array_depth);
        return count * ceil_div(m, tm) * ceil_div(n, tn) *
                   ceil_div(k, tk) +
               32.0;  // Pipeline fill.
    }
    // SA / SD, output stationary (Sec. 5.2.3): an A x A output tile
    // holds min(m, A) live rows; k streams through.  SA pays a drain
    // of A cycles per tile; SD a small reload bubble.
    const double A = static_cast<double>(d.array_rows);
    const bool systolic = d.kind == DesignKind::kSystolic ||
                          d.kind == DesignKind::kSystolicFigna;
    const double overhead = systolic ? A : A / 4.0;
    return count * ceil_div(m, A) * ceil_div(n, A) * (k + overhead);
}

/**
 * The rates derived from a report's runtime, energies and tokens:
 * throughput, power, energy per token and both efficiencies.
 */
void
derive_rates(PerfReport& report)
{
    report.throughput_tokens_per_s = report.tokens / report.runtime_s;
    report.power_w =
        (report.dynamic_energy_j + report.leakage_energy_j) /
        report.runtime_s;
    report.energy_per_token_j =
        (report.dynamic_energy_j + report.leakage_energy_j) /
        report.tokens;
    report.power_efficiency =
        report.throughput_tokens_per_s / report.power_w;
    report.energy_efficiency =
        report.throughput_tokens_per_s * report.power_efficiency;
}

}  // namespace

OpCost
gemm_cost(const DesignConfig& d, const model::GemmOp& op)
{
    OpCost cost;
    cost.name = op.name;
    cost.cls = op.cls;
    cost.compute_cycles = gemm_compute_cycles(d, op);

    const arch::OffChipMemory hbm;
    const double bytes =
        static_cast<double>(op.weights_from_dram ? op.weight_bytes()
                                                 : 0) +
        static_cast<double>(op.activation_bytes()) * 0.0;
    cost.memory_cycles = bytes / hbm.bytes_per_cycle();
    cost.cycles = std::max(cost.compute_cycles, cost.memory_cycles);

    const double macs = static_cast<double>(op.macs());
    arch::SramMacro macro{d.sram_bytes, true};
    const double sram_bytes =
        static_cast<double>(op.weight_bytes()) +
        static_cast<double>(op.activation_bytes()) +
        static_cast<double>(op.output_bytes());
    cost.dynamic_energy_pj =
        macs * gemm_energy_per_mac(d) +
        sram_bytes * macro.access_energy_per_byte() +
        (op.weights_from_dram
             ? static_cast<double>(op.weight_bytes()) *
                   hbm.energy_per_byte()
             : 0.0);
    return cost;
}

OpCost
nonlinear_cost(const DesignConfig& d, const model::NonlinearWork& work)
{
    OpCost cost;
    cost.name = work.name;
    cost.cls = model::OpClass::kNonlinear;
    const double elements = static_cast<double>(work.elements);

    double elements_per_cycle = 0.0;
    switch (d.nonlinear) {
      case NonlinearScheme::kVlp:
        // H rows retire one element each per 2^3-cycle mapping
        // (fully pipelined, Fig. 10).
        elements_per_cycle = static_cast<double>(d.array_rows) / 8.0;
        break;
      case NonlinearScheme::kLut:
        // 8 inputs share one LUT port; H/8 LUT copies.
        elements_per_cycle = static_cast<double>(d.array_rows) / 8.0;
        break;
      case NonlinearScheme::kPrecise:
        elements_per_cycle =
            static_cast<double>(d.vector_lanes) / 44.0;
        break;
      case NonlinearScheme::kTaylor:
        elements_per_cycle =
            static_cast<double>(d.vector_lanes) / 10.0;
        break;
      case NonlinearScheme::kPwl:
        elements_per_cycle = static_cast<double>(d.vector_lanes) / 5.0;
        break;
    }
    cost.compute_cycles = elements / elements_per_cycle;

    if (work.is_softmax) {
        // Normalization: the sum accumulates for free in the oAcc
        // during exp (Sec. 4.1) and the vector array scales outputs
        // as they exit the oFIFO, "hiding latency" (Sec. 5.2.1) --
        // only a single pipeline drain per row remains.
        cost.compute_cycles +=
            static_cast<double>(work.row_length) /
            std::max<double>(1.0, static_cast<double>(d.vector_lanes));
    }
    cost.cycles = cost.compute_cycles;  // On-chip data: no HBM term.

    double per_element = nonlinear_energy_per_element(d);
    if (work.is_softmax) {
        per_element +=
            arch::component_energy(arch::Component::kBf16Adder) +
            arch::component_energy(arch::Component::kBf16Mac);
    }
    cost.dynamic_energy_pj = elements * per_element;
    return cost;
}

PerfReport
run_workload(const DesignConfig& design, const model::Workload& workload)
{
    PerfReport report;
    report.design_name = design.name;
    report.workload_name = workload.name;
    const double nodes = static_cast<double>(design.nodes());

    double total_cycles = 0.0;
    double dynamic_pj = 0.0;
    double noc_pj = 0.0;

    for (const model::GemmOp& op : workload.gemms) {
        OpCost cost = gemm_cost(design, op);
        // Even tiling across nodes (output stationary, inter-node
        // accumulation): compute and memory streams divide by the
        // node count; dynamic energy is unchanged (same MACs), plus
        // NoC transfer energy for operands and partial sums.
        cost.compute_cycles /= nodes;
        cost.memory_cycles /= nodes;
        cost.cycles = std::max(cost.compute_cycles, cost.memory_cycles);
        if (design.nodes() > 1) {
            const double mesh_dim = std::sqrt(nodes);
            const double hops = std::max(1.0, 2.0 * mesh_dim / 3.0);
            const double moved_bytes =
                static_cast<double>(op.weight_bytes()) +
                static_cast<double>(op.activation_bytes()) +
                static_cast<double>(op.output_bytes());
            noc_pj += moved_bytes * hops * arch::kNocHopEnergyPerByte;
        }
        report.ops.push_back(cost);
        total_cycles += cost.cycles;
        dynamic_pj += cost.dynamic_energy_pj;
        report.cycles_by_class[op.cls] += cost.cycles;
        report.energy_by_class[op.cls] += cost.dynamic_energy_pj;
    }
    for (const model::NonlinearWork& work : workload.nonlinears) {
        OpCost cost = nonlinear_cost(design, work);
        cost.compute_cycles /= nodes;
        cost.cycles = cost.compute_cycles;
        report.ops.push_back(cost);
        total_cycles += cost.cycles;
        dynamic_pj += cost.dynamic_energy_pj;
        report.cycles_by_class[model::OpClass::kNonlinear] +=
            cost.cycles;
        report.energy_by_class[model::OpClass::kNonlinear] +=
            cost.dynamic_energy_pj;
    }
    dynamic_pj += noc_pj;

    report.total_cycles = total_cycles;
    report.runtime_s = total_cycles * arch::kCycleNs * 1e-9;
    report.dynamic_energy_j = dynamic_pj * 1e-12;
    report.leakage_energy_j = node_leakage_mw(design) * 1e-3 * nodes *
                              report.runtime_s;
    report.tokens = static_cast<double>(workload.tokens());
    derive_rates(report);
    return report;
}

void
PerfAccumulator::add(const PerfReport& report)
{
    if (steps_ == 0) {
        sum_.design_name = report.design_name;
        sum_.workload_name = report.workload_name + " (accumulated)";
    }
    ++steps_;
    sum_.total_cycles += report.total_cycles;
    sum_.runtime_s += report.runtime_s;
    sum_.dynamic_energy_j += report.dynamic_energy_j;
    sum_.leakage_energy_j += report.leakage_energy_j;
    sum_.tokens += report.tokens;
    for (const auto& [cls, cycles] : report.cycles_by_class) {
        sum_.cycles_by_class[cls] += cycles;
    }
    for (const auto& [cls, energy] : report.energy_by_class) {
        sum_.energy_by_class[cls] += energy;
    }
}

PerfReport
PerfAccumulator::total() const
{
    PerfReport report = sum_;
    if (report.runtime_s <= 0.0 || report.tokens <= 0.0) {
        return report;
    }
    derive_rates(report);
    return report;
}

NonlinearPerf
run_nonlinear_only(const DesignConfig& design,
                   const model::NonlinearWork& work)
{
    const OpCost cost = nonlinear_cost(design, work);
    NonlinearPerf perf;
    const double runtime_s = cost.cycles * arch::kCycleNs * 1e-9 /
                             static_cast<double>(design.nodes());
    perf.elements_per_s =
        static_cast<double>(work.elements) / runtime_s;
    const double energy_j =
        cost.dynamic_energy_pj * 1e-12 +
        node_leakage_mw(design) * 1e-3 *
            static_cast<double>(design.nodes()) * runtime_s;
    perf.power_w = energy_j / runtime_s;
    perf.power_efficiency = perf.elements_per_s / perf.power_w;
    perf.energy_efficiency =
        perf.elements_per_s * perf.power_efficiency;
    return perf;
}

KvFootprint
kv_footprint(const model::ModelConfig& config,
             units::Positions positions, quant::KvPrecision precision,
             units::Tokens block_tokens,
             units::Positions shared_positions)
{
    assert(block_tokens.value() > 0);
    assert(shared_positions <= positions);
    KvFootprint fp;
    const units::Bytes per_position =
        quant::KvCache::bytes_per_position(config.num_kv_heads,
                                           config.head_dim(),
                                           precision);
    // Fully-shared leading blocks live in the donor's accounting;
    // only the unshared tail (plus any partially-shared block, which
    // the writer will copy-on-write anyway) is this request's own.
    const units::Blocks shared_blocks = units::full_blocks_for(
        units::tokens_for(shared_positions), block_tokens);
    fp.contiguous_bytes =
        units::bytes_for(
            units::tokens_for(positions - shared_positions),
            per_position) *
        config.num_layers;
    fp.blocks = units::blocks_for(units::tokens_for(positions),
                                  block_tokens) -
                shared_blocks;
    fp.paged_bytes =
        units::bytes_for(units::tokens_for(fp.blocks, block_tokens),
                         per_position) *
        config.num_layers;
    return fp;
}

}  // namespace sim
}  // namespace mugi
