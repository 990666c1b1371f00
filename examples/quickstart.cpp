/**
 * @file
 * Quickstart: the three things Mugi does, through the serving API.
 *
 *  1. VLP nonlinear approximation: softmax through the temporal-coded
 *     LUT path, compared against the exact reference.
 *  2. Asymmetric BF16-INT4 GEMM: weights prepared (quantized) once at
 *     load time, then reused by the multiplier-free temporal array.
 *  3. Architecture evaluation: throughput / area / power / carbon of
 *     a Mugi node running Llama-2 decode.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>

#include "model/ops.h"
#include "serve/engine.h"
#include "serve/prepared_weights.h"
#include "support/rng.h"
#include "vlp/vlp_gemm.h"

using namespace mugi;

int
main()
{
    const std::unique_ptr<serve::Engine> engine =
        serve::Engine::default_mugi();

    // --- 1. VLP softmax. ---
    std::mt19937 rng(42);
    std::normal_distribution<float> dist(0.0f, 2.0f);
    std::vector<float> logits(16);
    for (float& v : logits) v = dist(rng);
    const std::vector<float> approx = engine->run_softmax(logits);
    const std::vector<float> exact = nonlinear::softmax_ref(logits);
    double l1 = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        l1 += std::fabs(approx[i] - exact[i]);
    }
    std::printf("VLP softmax: L1 distance to exact = %.4f over %zu "
                "entries\n",
                l1, logits.size());

    // --- 2. BF16-INT4 WOQ GEMM: prepare once, run many. ---
    support::MatrixF weights(64, 128);
    support::MatrixF activations(128, 8);
    support::fill_gaussian(weights, rng, 0.0f, 0.5f);
    support::fill_gaussian(activations, rng, 0.0f, 1.0f);
    const serve::PreparedWeights prepared(weights, /*group_size=*/32);
    const support::MatrixF out =
        serve::run_prepared_gemm(prepared, activations);
    const std::uint64_t cycles = vlp::vlp_gemm_mugi_cycles(
        weights.rows(), activations.cols(), weights.cols(),
        static_cast<int>(engine->design().array_rows),
        static_cast<int>(engine->design().array_cols));
    const support::MatrixF reference =
        model::linear(weights, activations);
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const double d = out.data()[i] - reference.data()[i];
        err += d * d;
        norm += reference.data()[i] * reference.data()[i];
    }
    std::printf("WOQ GEMM (64x128x8, group 32): relative error %.3f, "
                "%llu array cycles, %zu-byte prepared handle\n",
                std::sqrt(err / norm),
                static_cast<unsigned long long>(cycles),
                prepared.byte_size());

    // --- 3. Accelerator evaluation. ---
    const serve::SystemReport report =
        engine->evaluate(model::build_decode_workload(
            model::llama2_70b(), /*batch=*/8, /*context=*/4096));
    std::printf(
        "Llama-2 70B decode on %s: %.2f tokens/s, %.2f mm^2, %.2f "
        "tokens/s/W,\n  %.2f gCO2e/Mtoken operational + %.2f "
        "embodied\n",
        engine->design().name.c_str(),
        report.perf.throughput_tokens_per_s, report.area.total(),
        report.perf.power_efficiency,
        report.carbon.operational_g_per_token * 1e6,
        report.carbon.embodied_g_per_token * 1e6);
    return 0;
}
