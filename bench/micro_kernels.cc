/**
 * @file
 * Google-Benchmark micro-kernels (library-quality check; not a paper
 * figure): host-side speed of the functional kernels this library
 * ships -- the VLP approximator vs the reference nonlinearities, the
 * temporal GEMM simulation, group quantization, and the transformer
 * forward pass.  These guard against performance regressions in the
 * simulation substrate itself.
 */

#include <algorithm>
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
    std::uniform_int_distribution<int> wdist(-7, 7);
    vlp::Int4Matrix w(n, 32);
    support::MatrixF x(32, 8);
    for (std::size_t i = 0; i < w.rows(); ++i) {
        for (std::size_t j = 0; j < w.cols(); ++j) {
            w.at(i, j) = numerics::Int4::from_int(wdist(rng));
        }
    }
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
    std::uniform_int_distribution<int> wdist(-7, 7);
    vlp::Int4Matrix w(n, 32);
    support::MatrixF x(32, 8);
    for (std::size_t i = 0; i < w.rows(); ++i) {
        for (std::size_t j = 0; j < w.cols(); ++j) {
            w.at(i, j) = numerics::Int4::from_int(wdist(rng));
        }
    }
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    for (auto _ : state) {
        const vlp::VlpGemmResult r =
            vlp::vlp_gemm_mugi_baseline(w, x, 64, 8);
        benchmark::DoNotOptimize(r.out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * n * 32 * 8);
}
BENCHMARK(BM_TemporalGemmBaseline)->Arg(64)->Arg(256);

/** Shared setup for the subscription-sweep executor A/B pair. */
struct SubscribedSetup {
    vlp::SubscriptionLists subs;
    support::MatrixF acts;
    support::MatrixF out;

    explicit SubscribedSetup(std::size_t n)
    {
        std::mt19937 rng(5);
        std::uniform_int_distribution<int> wdist(-7, 7);
        vlp::Int4Matrix w(n, 32);
        for (std::size_t i = 0; i < w.rows(); ++i) {
            for (std::size_t j = 0; j < w.cols(); ++j) {
                w.at(i, j) = numerics::Int4::from_int(wdist(rng));
            }
        }
        subs = vlp::SubscriptionLists(w);
        acts = support::MatrixF(32, 8);
        support::fill_gaussian(acts, rng, 0.0f, 1.0f);
        out = support::MatrixF(n, 8, 0.0f);
    }
};

void
BM_SubscribedSweep(benchmark::State& state)
{
    // The u32 cycle-major executor the packed form replaced; the gap
    // to BM_SubscribedSweepPacked is the u16 tile-packing win.
    SubscribedSetup setup(state.range(0));
    for (auto _ : state) {
        std::fill(setup.out.data().begin(), setup.out.data().end(),
                  0.0f);
        vlp::vlp_gemm_subscribed(setup.subs, setup.acts, 0,
                                 setup.subs.cols(), setup.out);
        benchmark::DoNotOptimize(setup.out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 32 *
                            8);
}
BENCHMARK(BM_SubscribedSweep)->Arg(64)->Arg(256)->Arg(4096);

void
BM_SubscribedSweepPacked(benchmark::State& state)
{
    // The shipped tile-local u16 executor: half-width entries, zero
    // bucket pre-dropped, bit-identical output to BM_SubscribedSweep.
    SubscribedSetup setup(state.range(0));
    for (auto _ : state) {
        std::fill(setup.out.data().begin(), setup.out.data().end(),
                  0.0f);
        vlp::vlp_gemm_subscribed_packed(setup.subs, setup.acts, 0,
                                        setup.subs.cols(), setup.out);
        benchmark::DoNotOptimize(setup.out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 32 *
                            8);
}
BENCHMARK(BM_SubscribedSweepPacked)->Arg(64)->Arg(256)->Arg(4096);

void
BM_PreparedGemm(benchmark::State& state)
{
    // The serving WOQ path: quantize once, GEMM many times over the
    // cached subscription schedule.  Counters surface the simulated
    // work a single run charges (GemmRun carries all three).
    std::mt19937 rng(9);
    support::MatrixF weights(256, 256);
    support::MatrixF acts(256, 8);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);
    support::fill_gaussian(acts, rng, 0.0f, 1.0f);
    const serve::PreparedWeights prepared(weights, 128);
    serve::GemmRun last;
    for (auto _ : state) {
        last = serve::run_prepared_gemm(prepared, acts, 256, 8);
        benchmark::DoNotOptimize(last.out.data().data());
    }
    state.counters["sim_cycles"] =
        static_cast<double>(last.cycles);
    state.counters["sim_sweeps"] =
        static_cast<double>(last.sweeps);
    state.counters["sim_subscriptions"] =
        static_cast<double>(last.subscriptions);
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
// Both fills draw one 256x682 FFN matrix of its eval config; the Std
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

void
BM_FillGaussian(benchmark::State& state)
{
    support::Mt19937 rng(8);
    support::MatrixF w(256, 682);
    for (auto _ : state) {
        support::fill_gaussian(w, rng, 0.0f, 0.125f);
        benchmark::DoNotOptimize(w.data().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_FillGaussian);

void
BM_TransformerModelInit(benchmark::State& state)
{
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 256, 1024);
    for (auto _ : state) {
        const model::TransformerModel m(config, 7);
        benchmark::DoNotOptimize(m.lm_head().data().data());
    }
    // Every weight drawn: the layers plus embedding and LM head.
    const std::size_t weights =
        config.weight_params() + 2 * config.vocab * config.d_model;
    state.SetItemsProcessed(state.iterations() * weights);
}
BENCHMARK(BM_TransformerModelInit)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
