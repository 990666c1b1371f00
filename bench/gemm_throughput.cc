/**
 * @file
 * Functional GEMM execution throughput (library-quality check; not a
 * paper figure): wall-clock of the sweep-accumulator kernel vs the
 * literal cycle-by-row baseline, and end-to-end decode tokens/s of
 * one fused Engine::step over the batch vs sequential decode (each
 * session stepped alone, one Engine::step per session per token) at
 * batch 1/4/16 for float and INT4 KV caches, with the modeled
 * accelerator cycles each path's steps charge
 * (StepResult::perf.total_cycles: projection, attention and
 * nonlinear work).
 *
 * With --json PATH the same numbers are written machine-readable
 * (BENCH_gemm.json in CI, uploaded as an artifact).  With --check
 * the binary exits nonzero if the token streams differ, if fused
 * decode is slower than sequential at any batch > 1, or if the
 * kernel speedup falls below the 15x floor -- the CI regression gate
 * for this path.
 */

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/engine.h"
#include "support/rng.h"
#include "vlp/vlp_gemm.h"

using namespace mugi;

namespace {

struct KernelResult {
    double baseline_s = 0.0;
    double sweep_s = 0.0;
    double speedup = 0.0;
    bool bit_identical = false;
};

KernelResult
run_kernel_microbench()
{
    // Serving-shaped GEMM: H=256 Mugi node, d_model-sized reduction,
    // one batch tile of activations.
    const std::size_t n = 512, k = 256, b = 8;
    const int array_rows = 256, array_cols = 8;
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> wdist(-7, 7);
    vlp::Int4Matrix w(n, k);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
            w.at(r, c) = numerics::Int4::from_int(wdist(rng));
        }
    }
    support::MatrixF x(k, b);
    support::fill_gaussian(x, rng, 0.0f, 1.0f);

    KernelResult result;
    const vlp::VlpGemmResult golden =
        vlp::vlp_gemm_mugi_baseline(w, x, array_rows, array_cols);
    const vlp::VlpGemmResult fast =
        vlp::vlp_gemm_mugi(w, x, array_rows, array_cols);
    result.bit_identical = golden.out == fast.out &&
                           golden.cycles == fast.cycles &&
                           golden.sweeps == fast.sweeps &&
                           golden.subscriptions == fast.subscriptions;

    // Interleave the two kernels' reps so drifting background load
    // degrades both best-of measurements alike.
    result.baseline_s = 1e300;
    result.sweep_s = 1e300;
    for (int rep = 0; rep < 7; ++rep) {
        result.baseline_s =
            std::min(result.baseline_s, bench::best_of(1, [&] {
                const vlp::VlpGemmResult r =
                    vlp::vlp_gemm_mugi_baseline(w, x, array_rows,
                                                array_cols);
                if (r.out.size() == 0) std::abort();
            }));
        result.sweep_s =
            std::min(result.sweep_s, bench::best_of(1, [&] {
                const vlp::VlpGemmResult r = vlp::vlp_gemm_mugi(
                    w, x, array_rows, array_cols);
                if (r.out.size() == 0) std::abort();
            }));
    }
    result.speedup = result.baseline_s / result.sweep_s;
    return result;
}

struct DecodeResult {
    std::size_t batch = 0;
    std::string kv;
    double sequential_tok_s = 0.0;
    double fused_tok_s = 0.0;
    double speedup = 0.0;
    double sequential_cycles = 0.0;
    double fused_cycles = 0.0;
    bool tokens_identical = false;
};

DecodeResult
run_decode_bench(const serve::Engine& engine,
                 const model::ModelConfig& config, std::size_t batch,
                 quant::KvPrecision precision, int decode_steps)
{
    DecodeResult result;
    result.batch = batch;
    result.kv = precision == quant::KvPrecision::kInt4 ? "int4"
                                                       : "float";

    // One warm context per lane, shared setup for both paths.
    const auto make_sessions = [&] {
        std::vector<serve::Session> sessions;
        sessions.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            serve::SessionOptions options;
            options.kv_precision = precision;
            sessions.push_back(engine.create_session(options));
            const auto prompt = model::synthetic_tokens(
                4 + i % 3, config.vocab,
                static_cast<std::uint32_t>(1000 + i));
            engine.prefill(sessions.back(), prompt);
        }
        return sessions;
    };

    // One timed run of a path on a fresh session set: its wall
    // seconds, with its tokens in @p produced and its cycles in
    // @p cycles.
    const auto run_path = [&](bool fused, std::vector<int>& produced,
                              double& cycles) {
        std::vector<serve::Session> sessions = make_sessions();
        serve::StepPlan plan;
        for (serve::Session& s : sessions) {
            plan.decode_sessions.push_back(&s);
        }
        plan.decode_tokens.assign(batch, 0);
        for (std::size_t i = 0; i < batch; ++i) {
            plan.decode_tokens[i] =
                static_cast<int>((7 * i + 3) % config.vocab);
        }
        produced.clear();
        cycles = 0.0;
        const bench::Timer timer;
        for (int step = 0; step < decode_steps; ++step) {
            std::vector<serve::StepResult> results;
            if (fused) {
                results.push_back(engine.step(plan));
            } else {
                // Sequential: each session stepped alone.
                for (std::size_t i = 0; i < batch; ++i) {
                    results.push_back(
                        engine.step(*plan.decode_sessions[i],
                                    plan.decode_tokens[i]));
                }
            }
            std::size_t lane = 0;
            for (const serve::StepResult& r : results) {
                cycles += r.perf.total_cycles;
                for (const auto& out : r.outputs) {
                    produced.push_back(out.next_token);
                    plan.decode_tokens[lane++] = out.next_token;
                }
            }
        }
        return timer.seconds();
    };

    // Best-of-3 per path, the repeats interleaved (sequential, then
    // fused, three times) so that a change in the host's speed
    // between repeats reaches both paths.  The decode is
    // deterministic, so tokens and cycles agree across repeats.
    std::vector<int> seq_tokens;
    std::vector<int> fused_tokens;
    double seq_s = 1e300;
    double fused_s = 1e300;
    for (int repeat = 0; repeat < 3; ++repeat) {
        seq_s = std::min(seq_s, run_path(false, seq_tokens,
                                         result.sequential_cycles));
        fused_s = std::min(fused_s, run_path(true, fused_tokens,
                                             result.fused_cycles));
    }
    result.tokens_identical = seq_tokens == fused_tokens;
    const double tokens =
        static_cast<double>(batch) * decode_steps;
    result.sequential_tok_s = tokens / seq_s;
    result.fused_tok_s = tokens / fused_s;
    result.speedup = result.fused_tok_s / result.sequential_tok_s;
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        }
    }

    bench::print_title("Functional GEMM throughput");

    bench::print_subtitle(
        "Kernel: sweep-accumulator vs cycle-by-row baseline "
        "(512x256x8, H=256)");
    const KernelResult kernel = run_kernel_microbench();
    bench::print_header("", {"base ms", "sweep ms", "speedup"});
    bench::print_row("vlp_gemm_mugi",
                     {kernel.baseline_s * 1e3, kernel.sweep_s * 1e3,
                      kernel.speedup});
    std::printf("bit-identical: %s\n",
                kernel.bit_identical ? "yes" : "NO");

    bench::print_subtitle(
        "Decode: fused batched Engine::step vs sequential "
        "(llama2-7b eval scale, d=256)");
    // Large enough that the projection GEMMs dominate the step (the
    // per-step analytic workload evaluation is path-independent and
    // would otherwise dilute the comparison toward 1.0).
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 256, 1024);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 7);
    const serve::Engine engine(sim::make_mugi(256), transformer);

    bench::print_header("batch/kv", {"seq tok/s", "fused tok/s",
                                     "speedup", "seq Mcyc", "fus Mcyc"});
    std::vector<DecodeResult> rows;
    for (const quant::KvPrecision precision :
         {quant::KvPrecision::kFloat, quant::KvPrecision::kInt4}) {
        for (const std::size_t batch : {1u, 4u, 16u}) {
            const DecodeResult row = run_decode_bench(
                engine, config, batch, precision, 8);
            bench::print_row(
                std::to_string(batch) + "/" + row.kv,
                {row.sequential_tok_s, row.fused_tok_s, row.speedup,
                 row.sequential_cycles / 1e6, row.fused_cycles / 1e6},
                "%9.2f");
            rows.push_back(row);
        }
    }

    bool ok = kernel.bit_identical;
    bool fused_never_slower = true;
    bool tokens_all_identical = true;
    for (const DecodeResult& row : rows) {
        // At batch 1 both sides are the same one-session step, so
        // their timings differ only by noise; the perf gate covers
        // the real batches.
        if (row.batch > 1) {
            fused_never_slower &=
                row.fused_tok_s >= row.sequential_tok_s;
        }
        tokens_all_identical &= row.tokens_identical;
    }
    std::printf("\nfused >= sequential at every batch > 1: %s\n",
                fused_never_slower ? "yes" : "NO");
    std::printf("fused tokens bit-identical: %s\n",
                tokens_all_identical ? "yes" : "NO");

    if (!json_path.empty()) {
        bench::Json decode = bench::Json::array();
        for (const DecodeResult& row : rows) {
            decode.push(
                bench::Json::object()
                    .set("batch", row.batch)
                    .set("kv", row.kv)
                    .set("sequential_tokens_per_s",
                         row.sequential_tok_s)
                    .set("fused_tokens_per_s", row.fused_tok_s)
                    .set("speedup", row.speedup)
                    .set("sequential_modeled_cycles",
                         row.sequential_cycles)
                    .set("fused_modeled_cycles", row.fused_cycles)
                    .set("tokens_identical", row.tokens_identical));
        }
        const bench::Json doc =
            bench::Json::object()
                .set("kernel",
                     bench::Json::object()
                         .set("shape", "512x256x8")
                         .set("baseline_ms", kernel.baseline_s * 1e3)
                         .set("sweep_ms", kernel.sweep_s * 1e3)
                         .set("speedup", kernel.speedup)
                         .set("bit_identical", kernel.bit_identical))
                .set("decode", std::move(decode));
        if (!doc.write_file(json_path)) {
            std::fprintf(stderr, "failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (check) {
        if (!ok || !tokens_all_identical) {
            std::fprintf(stderr,
                         "CHECK FAILED: bit-identity violated\n");
            return 1;
        }
        if (!fused_never_slower) {
            std::fprintf(
                stderr,
                "CHECK FAILED: fused decode slower than sequential\n");
            return 1;
        }
        if (kernel.speedup < 15.0) {
            std::fprintf(stderr,
                         "CHECK FAILED: kernel speedup %.1fx < 15x\n",
                         kernel.speedup);
            return 1;
        }
    }
    return 0;
}
