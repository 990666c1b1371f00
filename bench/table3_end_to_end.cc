/**
 * @file
 * Table 3: end-to-end throughput, on-chip area, energy efficiency and
 * power efficiency on Llama 2 70B with GQA (batch 8, sequence 4096),
 * for single nodes (SN), scaled-up single nodes (SN-S) and NoC
 * configurations.  Energy efficiency follows the paper's metric:
 * throughput / energy-per-token.
 *
 * --threads N|auto appends a functional footer: wall-clock tokens/s
 * of an eval-scale batch-8 decode with Engine::step serial vs fanned
 * across an N-worker pool ("auto" sizes the pool from the hardware;
 * the table itself is analytic and unaffected).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "model/transformer.h"
#include "model/workload.h"
#include "serve/engine.h"
#include "serve/scheduler.h"
#include "support/thread_pool.h"

using namespace mugi;

namespace {

void
print_design(const sim::DesignConfig& d, const model::Workload& w)
{
    const sim::PerfReport r = sim::run_workload(d, w);
    std::printf("%-18s %10.2f %9.2f %12.2f %12.2f\n", d.name.c_str(),
                r.throughput_tokens_per_s, sim::total_area_mm2(d),
                r.energy_efficiency, r.power_efficiency);
}

/** Wall-clock tokens/s of @p steps fused decode steps at batch 8. */
double
functional_decode_tok_s(const serve::Engine& engine,
                        const model::ModelConfig& config,
                        std::size_t threads, int steps)
{
    const std::size_t batch = 8;
    std::vector<serve::Session> sessions;
    sessions.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        sessions.push_back(engine.create_session());
        engine.prefill(sessions.back(),
                       model::synthetic_tokens(
                           4 + i % 3, config.vocab,
                           static_cast<std::uint32_t>(400 + i)));
    }
    std::unique_ptr<support::ThreadPool> pool;
    if (threads > 0) {
        pool = std::make_unique<support::ThreadPool>(threads);
    }
    serve::StepPlan plan;
    for (serve::Session& s : sessions) {
        plan.decode_sessions.push_back(&s);
    }
    plan.decode_tokens.assign(batch, 0);
    for (std::size_t i = 0; i < batch; ++i) {
        plan.decode_tokens[i] =
            static_cast<int>((5 * i + 2) % config.vocab);
    }
    const bench::Timer timer;
    for (int step = 0; step < steps; ++step) {
        const serve::StepResult r = engine.step(plan, pool.get());
        for (std::size_t i = 0; i < batch; ++i) {
            plan.decode_tokens[i] = r.outputs[i].next_token;
        }
    }
    return static_cast<double>(batch) * steps / timer.seconds();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::size_t threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            const std::optional<std::size_t> parsed =
                serve::threads_flag(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "usage: %s [--threads N|auto]\n",
                             argv[0]);
                return 2;
            }
            threads = serve::resolve_step_threads(*parsed);
        }
    }
    bench::print_title(
        "Table 3: LLaMA-2 70B (GQA), batch 8, seq 4096");
    const model::Workload w =
        model::build_decode_workload(model::llama2_70b(), 8, 4096);

    std::printf("%-18s %10s %9s %12s %12s\n", "Design", "Tokens/s",
                "Area mm2", "EnergyEff", "Tokens/s/W");

    std::printf("--- single node (SN) ---\n");
    for (const sim::DesignConfig& d :
         {sim::make_mugi(128), sim::make_mugi(256),
          sim::make_carat(128), sim::make_carat(256),
          sim::make_systolic(16), sim::make_systolic(16, true),
          sim::make_simd(16), sim::make_simd(16, true)}) {
        print_design(d, w);
    }

    std::printf("--- scaled-up single node (SN-S) ---\n");
    for (const sim::DesignConfig& d :
         {sim::make_systolic(64), sim::make_systolic(64, true),
          sim::make_simd(64), sim::make_simd(64, true),
          sim::make_tensor()}) {
        print_design(d, w);
    }

    std::printf("--- NoC ---\n");
    for (const sim::DesignConfig& d :
         {sim::make_mugi(256).with_noc(4, 4),
          sim::make_carat(256).with_noc(4, 4),
          sim::make_systolic(16).with_noc(4, 4),
          sim::make_systolic(16, true).with_noc(4, 4),
          sim::make_simd(16).with_noc(4, 4),
          sim::make_simd(16, true).with_noc(4, 4),
          sim::make_tensor().with_noc(2, 1)}) {
        print_design(d, w);
    }

    // Headline ratios of Sec. 6.3.1.
    const sim::PerfReport mugi256 =
        sim::run_workload(sim::make_mugi(256), w);
    const sim::PerfReport sa16 =
        sim::run_workload(sim::make_systolic(16), w);
    std::printf(
        "\nHeadline Mugi(256) vs SA(16): throughput %.2fx (paper "
        "2.07x), energy\nefficiency %.2fx (paper 3.11x), power "
        "efficiency %.2fx (paper 1.50x)\n",
        mugi256.throughput_tokens_per_s /
            sa16.throughput_tokens_per_s,
        mugi256.energy_efficiency / sa16.energy_efficiency,
        mugi256.power_efficiency / sa16.power_efficiency);

    if (threads > 0) {
        const model::ModelConfig config =
            model::llama2_7b().scaled_for_eval(4, 256, 1024);
        auto transformer =
            std::make_shared<model::TransformerModel>(config, 7);
        const serve::Engine engine(sim::make_mugi(256), transformer);
        const double serial_tok_s =
            functional_decode_tok_s(engine, config, 0, 8);
        const double pooled_tok_s =
            functional_decode_tok_s(engine, config, threads, 8);
        std::printf(
            "\nFunctional batch-8 decode (%s): %.2f tokens/s serial, "
            "%.2f tokens/s on %zu threads (%.2fx)\n",
            config.name.c_str(), serial_tok_s, pooled_tok_s, threads,
            pooled_tok_s / serial_tok_s);
    }
    return 0;
}
