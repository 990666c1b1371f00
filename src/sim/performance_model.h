#ifndef MUGI_SIM_PERFORMANCE_MODEL_H_
#define MUGI_SIM_PERFORMANCE_MODEL_H_

/**
 * @file
 * Analytic performance model (Sec. 5.4): per-operation latency and
 * energy of a workload on a design, with an HBM roofline per op and
 * utilization terms that capture the mapping effects the paper
 * evaluates:
 *
 *  - Mugi/Carat (transposed VLP): INT4 weights on H rows, BF16
 *    activations on 8 columns; one k-step sweep = 2^3 cycles; column
 *    utilization = min(m, 8)/8 (peaks at batch/GQA-group 8, Sec. 4.2);
 *  - SA/SD (output stationary, Sec. 5.2.3): out-tile rows limited by
 *    the activation rows, utilization = min(m, A)/A -- the small-batch
 *    under-utilization that worsens with array size (Sec. 6.2);
 *  - tensor core: fully pipelined 8x16x16;
 *  - nonlinear schemes: VLP H/8 elem/cycle vs vector arrays at
 *    lanes/cycles-per-element.
 *
 * The cycle formulas for the VLP designs equal the cycle-accurate
 * array simulation (vlp::vlp_gemm_mugi_baseline) exactly; tests
 * enforce this.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/workload.h"
#include "quant/kv_cache.h"
#include "sim/cost_model.h"
#include "sim/design.h"

namespace mugi {
namespace sim {

/**
 * Modeled KV-cache footprint of one request at a context length,
 * under both storage disciplines the serving stack supports.  This
 * is the quantity serve::Scheduler admits against and
 * bench/kv_paging.cc sweeps: contiguous_bytes is the token-exact
 * accounting a full-length projection charges, paged_bytes rounds up
 * to the fixed-size blocks a quant::BlockPool actually allocates.
 */
struct KvFootprint {
    units::Bytes contiguous_bytes{0};  ///< positions * exact B/pos.
    units::Bytes paged_bytes{0};       ///< Whole blocks, all layers.
    units::Blocks blocks{0};           ///< Per-layer block count.
};

/**
 * @param shared_positions Leading positions resident as another
 *        request's prefix-cached blocks (block-aligned by the
 *        scheduler's sharing rule).  Only the *fully*-shared leading
 *        blocks are discounted from the paged accounting -- those
 *        blocks' storage (and, with INT4 KVQ, their quantization
 *        pass) is charged to the donor -- so the result is the
 *        request's own admission charge and the prefill work it must
 *        still run covers exactly positions - shared tokens.
 */
KvFootprint kv_footprint(const model::ModelConfig& config,
                         units::Positions positions,
                         quant::KvPrecision precision,
                         units::Tokens block_tokens =
                             quant::BlockPool::kDefaultBlockTokens,
                         units::Positions shared_positions =
                             units::Positions(0));

/** Latency + energy of one op on one design. */
struct OpCost {
    std::string name;
    model::OpClass cls = model::OpClass::kProjection;
    double compute_cycles = 0.0;  ///< Array-bound cycles.
    double memory_cycles = 0.0;   ///< HBM-bound cycles.
    double cycles = 0.0;          ///< max(compute, memory).
    double dynamic_energy_pj = 0.0;
};

/** Full execution report of a workload on a design. */
struct PerfReport {
    std::string design_name;
    std::string workload_name;
    std::vector<OpCost> ops;
    double total_cycles = 0.0;
    double runtime_s = 0.0;
    double dynamic_energy_j = 0.0;
    double leakage_energy_j = 0.0;
    double tokens = 0.0;

    double throughput_tokens_per_s = 0.0;
    double power_w = 0.0;  ///< (dynamic + leakage) / runtime.
    /**
     * Energy efficiency as the paper reports it (Table 3
     * "Tokens/s/uJ"): throughput divided by energy-per-token, i.e.
     * throughput^2 / power.
     */
    double energy_efficiency = 0.0;
    double power_efficiency = 0.0;  ///< tokens/s/W.
    double energy_per_token_j = 0.0;

    /** Cycles per op class (latency breakdown, Fig. 16). */
    std::map<model::OpClass, double> cycles_by_class;
    /** Dynamic energy per op class (carbon breakdown, Fig. 15). */
    std::map<model::OpClass, double> energy_by_class;
};

/**
 * Accumulates per-step PerfReports into a serving-horizon total:
 * cycles, energies, tokens and the per-class breakdowns add up; the
 * derived rates (throughput, power, efficiencies) are recomputed
 * over the aggregate, so a sequence of heterogeneous Engine::step
 * reports folds into one steady-state serving report.
 */
class PerfAccumulator {
  public:
    /** Fold one step's report in (op lists are not retained). */
    void add(const PerfReport& report);

    std::size_t steps() const { return steps_; }

    /**
     * Modeled busy time accumulated so far, in seconds.
     * serve::Scheduler's request-lifecycle clock (queue wait, TTFT,
     * TPOT) is this plus any idle fast-forward skips it makes while
     * waiting for future arrivals.
     */
    double elapsed_s() const { return sum_.runtime_s; }

    /** The aggregate with all derived metrics recomputed. */
    PerfReport total() const;

  private:
    std::size_t steps_ = 0;
    PerfReport sum_;
};

/** Cost of one GEMM on one node of the design. */
OpCost gemm_cost(const DesignConfig& design, const model::GemmOp& op);

/** Cost of one nonlinear batch on one node of the design. */
OpCost nonlinear_cost(const DesignConfig& design,
                      const model::NonlinearWork& work);

/**
 * Run a workload on the design.  With a multi-node mesh, GEMMs are
 * tiled evenly across nodes (output stationary, inter-node
 * accumulation, Sec. 4.2) and the NoC adds transfer energy; the
 * off-chip memory always supplies the minimum required bandwidth
 * (Sec. 5.2.3).
 */
PerfReport run_workload(const DesignConfig& design,
                        const model::Workload& workload);

/**
 * Nonlinear-only report (Fig. 11): throughput in elements/s plus the
 * same efficiency metrics, for a stream of @p elements of @p op.
 */
struct NonlinearPerf {
    double elements_per_s = 0.0;
    double power_w = 0.0;
    double energy_efficiency = 0.0;  ///< throughput^2 / power.
    double power_efficiency = 0.0;   ///< elements/s/W.
};

NonlinearPerf run_nonlinear_only(const DesignConfig& design,
                                 const model::NonlinearWork& work);

}  // namespace sim
}  // namespace mugi

#endif  // MUGI_SIM_PERFORMANCE_MODEL_H_
