/**
 * @file
 * Google-Benchmark micro-kernels (library-quality check; not a paper
 * figure): host-side speed of the functional kernels this library
 * ships -- the VLP approximator vs the reference nonlinearities, the
 * temporal GEMM simulation, group quantization, and the transformer
 * forward pass.  These guard against performance regressions in the
 * simulation substrate itself.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "nonlinear/pwl.h"
#include "nonlinear/taylor.h"
#include "quant/group_quant.h"
#include "serve/prepared_weights.h"
#include "support/rng.h"
#include "vlp/vlp_approximator.h"
#include "vlp/vlp_gemm.h"

using namespace mugi;

namespace {

std::vector<float>
random_values(std::size_t n, float lo, float hi, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(lo, hi);
    std::vector<float> v(n);
    for (float& x : v) x = dist(rng);
    return v;
}

/** An n x 32 matrix of INT4 codes drawn uniformly from [-7, 7]. */
vlp::Int4Matrix
random_codes(std::size_t n, std::mt19937& rng)
{
    std::uniform_int_distribution<int> dist(-7, 7);
    vlp::Int4Matrix w(n, 32);
    for (numerics::Int4& code : w.data()) {
        code = numerics::Int4::from_int(dist(rng));
    }
    return w;
}

void
BM_ExactExp(benchmark::State& state)
{
    const auto exact = nonlinear::make_exact(nonlinear::NonlinearOp::kExp);
    const auto in = random_values(4096, -16.0f, 0.0f, 1);
    std::vector<float> out(in.size());
    for (auto _ : state) {
        exact->apply_batch(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_ExactExp);

void
BM_VlpExp(benchmark::State& state)
{
    const auto vlp = vlp::make_vlp(nonlinear::NonlinearOp::kExp, 8, 4);
    const auto in = random_values(4096, -16.0f, 0.0f, 2);
    std::vector<float> out(in.size());
    for (auto _ : state) {
        vlp->apply_batch(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_VlpExp);

void
BM_PwlExp(benchmark::State& state)
{
    const nonlinear::PwlApproximator pwl(
        {nonlinear::NonlinearOp::kExp, 22, -16.0});
    const auto in = random_values(4096, -16.0f, 0.0f, 3);
    std::vector<float> out(in.size());
    for (auto _ : state) {
        pwl.apply_batch(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_PwlExp);

void
BM_TaylorExp(benchmark::State& state)
{
    const nonlinear::TaylorApproximator taylor(
        {nonlinear::NonlinearOp::kExp, 9, -4.0});
    const auto in = random_values(4096, -16.0f, 0.0f, 4);
    std::vector<float> out(in.size());
    for (auto _ : state) {
        taylor.apply_batch(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_TaylorExp);

void
BM_TemporalGemm(benchmark::State& state)
{
    const std::size_t n = state.range(0);
    std::mt19937 rng(5);
    const vlp::Int4Matrix w = random_codes(n, rng);
    support::MatrixF x(32, 8);
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    for (auto _ : state) {
        const vlp::VlpGemmResult r = vlp::vlp_gemm_mugi(w, x, 64, 8);
        benchmark::DoNotOptimize(r.out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * 32 * 8);
}
BENCHMARK(BM_TemporalGemm)->Arg(64)->Arg(256);

void
BM_TemporalGemmBaseline(benchmark::State& state)
{
    // The literal cycle-by-row simulation the sweep-accumulator
    // kernel replaced; the gap between this and BM_TemporalGemm is
    // the kernel win bench/gemm_throughput gates on.
    const std::size_t n = state.range(0);
    std::mt19937 rng(5);
    const vlp::Int4Matrix w = random_codes(n, rng);
    support::MatrixF x(32, 8);
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    for (auto _ : state) {
        const vlp::VlpGemmResult r =
            vlp::vlp_gemm_mugi_baseline(w, x, 64, 8);
        benchmark::DoNotOptimize(r.out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * 32 * 8);
}
BENCHMARK(BM_TemporalGemmBaseline)->Arg(64)->Arg(256);

void
BM_SweepGemm(benchmark::State& state)
{
    // The sweep executor alone, straight over the INT4 codes: the
    // accumulator tables plus every row's walk, without the result
    // allocation and counters vlp_gemm_mugi adds around it.
    const std::size_t n = state.range(0);
    std::mt19937 rng(5);
    const vlp::Int4Matrix w = random_codes(n, rng);
    support::MatrixF acts(32, 8);
    support::fill_gaussian(acts, rng, 0.0f, 1.0f);
    support::MatrixF out(n, 8, 0.0f);
    for (auto _ : state) {
        std::fill(out.data().begin(), out.data().end(), 0.0f);
        vlp::vlp_gemm_sweep(w, acts, 0, w.cols(), out);
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * 32 * 8);
}
BENCHMARK(BM_SweepGemm)->Arg(64)->Arg(256)->Arg(4096);

void
BM_PreparedGemm(benchmark::State& state)
{
    // The serving WOQ path: quantize once, GEMM many times over the
    // handle's shared INT4 codes and scales.  Counters surface the
    // simulated work one run charges on an H=256 node, from the
    // analytic cycle formula.
    std::mt19937 rng(9);
    support::MatrixF weights(256, 256);
    support::MatrixF acts(256, 8);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);
    support::fill_gaussian(acts, rng, 0.0f, 1.0f);
    const serve::PreparedWeights prepared(weights, 128);
    for (auto _ : state) {
        const support::MatrixF out =
            serve::run_prepared_gemm(prepared, acts);
        benchmark::DoNotOptimize(out.data().data());
    }
    const std::uint64_t cycles = vlp::vlp_gemm_mugi_cycles(
        weights.rows(), acts.cols(), weights.cols(), 256, 8);
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.counters["sim_sweeps"] = static_cast<double>(cycles / 8);
    state.counters["sim_subscriptions"] =
        static_cast<double>(weights.size() * acts.cols());
    state.SetItemsProcessed(state.iterations() * weights.size() *
                            acts.cols());
}
BENCHMARK(BM_PreparedGemm);

void
BM_GroupQuantize(benchmark::State& state)
{
    std::mt19937 rng(6);
    support::MatrixF w(128, 1024);
    support::fill_gaussian(w, rng, 0.0f, 0.5f);
    for (auto _ : state) {
        const quant::QuantizedMatrix q = quant::quantize_int4(w, 128);
        benchmark::DoNotOptimize(q.values.data().data());
    }
    state.SetItemsProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_GroupQuantize);

void
BM_TransformerForward(benchmark::State& state)
{
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(2, 64, 128);
    const model::TransformerModel m(config, 7);
    const auto tokens = model::synthetic_tokens(32, config.vocab, 8);
    for (auto _ : state) {
        const support::MatrixF logits = m.forward_tokens(tokens);
        benchmark::DoNotOptimize(logits.data().data());
    }
    state.SetItemsProcessed(state.iterations() * tokens.size());
}
BENCHMARK(BM_TransformerForward);

// Model construction, the bulk of the serving benchmark's setup_s.
// The fills draw one 256x682 FFN matrix of its eval config; the Std
// variant is the libstdc++ loop fill_gaussian reproduces bit for bit.
void
BM_FillGaussianStd(benchmark::State& state)
{
    std::mt19937 rng(8);
    support::MatrixF w(256, 682);
    for (auto _ : state) {
        std::normal_distribution<float> dist(0.0f, 0.125f);
        for (float& v : w.data()) {
            v = dist(rng);
        }
        benchmark::DoNotOptimize(w.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_FillGaussianStd);

// dispatched:0 draws through the scalar block kernel, dispatched:1
// through the one fill_gaussian picks for this CPU (AVX-512F where it
// has it); the engine refills the same way in both.
void
BM_FillGaussian(benchmark::State& state)
{
    const support::detail::PolarBlock block =
        state.range(0) == 0 ? support::detail::polar_block_scalar
                            : support::detail::polar_block();
    support::Mt19937 rng(8);
    support::MatrixF w(256, 682);
    for (auto _ : state) {
        support::detail::fill_gaussian_with(block, w, rng, 0.0f,
                                            0.125f);
        benchmark::DoNotOptimize(w.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_FillGaussian)->ArgName("dispatched")->Arg(0)->Arg(1);

// The fill's log over one block's worth of kept r²: form:0 is the C
// library's logf, form:1 the scalar polar_log, form:2 the form this
// CPU's block kernel runs (8 lanes at once where it has AVX-512F).
// Items are logs, so 1 / items_per_second is the time per log.
void
BM_PolarLog(benchmark::State& state)
{
    support::Mt19937 rng(8);
    std::vector<float> r2s;
    while (r2s.size() < support::detail::kPolarBlock) {
        const float x = support::detail::polar_coordinate(rng());
        const float y = support::detail::polar_coordinate(rng());
        const float r2 = x * x + y * y;
        if (r2 <= 1.0f && r2 != 0.0f) {
            r2s.push_back(r2);
        }
    }
    std::vector<float> logs(r2s.size());
    const auto form = state.range(0);
    const bool lanes =
        form == 2 && support::detail::cpu_has_avx512f();
    for (auto _ : state) {
        if (form == 0) {
            for (std::size_t i = 0; i < r2s.size(); ++i) {
                logs[i] = std::log(r2s[i]);
            }
        } else if (lanes) {
            support::detail::polar_log_avx512(r2s.data(), r2s.size(),
                                              logs.data());
        } else {
            for (std::size_t i = 0; i < r2s.size(); ++i) {
                logs[i] = support::detail::polar_log(r2s[i]);
            }
        }
        benchmark::DoNotOptimize(logs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * r2s.size());
}
BENCHMARK(BM_PolarLog)->ArgName("form")->Arg(0)->Arg(1)->Arg(2);

/** Minor page faults this process has taken so far. */
long
minor_faults()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

// The perfbench model.  Each build maps its weight block afresh, so
// minor_faults (per build) counts what a set-up pays for fresh weight
// memory: a fault per huge page where THP gives them, else one per
// 4 KB page.
void
BM_TransformerModelInit(benchmark::State& state)
{
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 256, 1024);
    const long faults_before = minor_faults();
    for (auto _ : state) {
        const model::TransformerModel m(config, 7);
        benchmark::DoNotOptimize(m.lm_head().data().data());
    }
    state.counters["minor_faults"] = benchmark::Counter(
        static_cast<double>(minor_faults() - faults_before),
        benchmark::Counter::kAvgIterations);
    // Every weight drawn: the layers plus embedding and LM head.
    const std::size_t weights =
        config.weight_params() + 2 * config.vocab * config.d_model;
    state.SetItemsProcessed(state.iterations() * weights);
}
BENCHMARK(BM_TransformerModelInit)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
