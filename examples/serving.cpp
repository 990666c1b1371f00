/**
 * @file
 * Request-lifecycle serving with serve::Scheduler: submit a trace of
 * Llama-2 70B requests with staggered arrivals, let the scheduler
 * admit them under a KV-memory budget, chunk their prefills into the
 * decode batch, and continuously batch Engine::step until the trace
 * drains -- then report per-request TTFT/TPOT and the serving-horizon
 * ServerStats.
 *
 * The points on display:
 *  - admission control: the INT4-KV block pool caps how many
 *    requests hold cache concurrently; admission reserves only each
 *    prompt's blocks (not the full projected generation), later
 *    arrivals queue (their queue wait shows up in TTFT), and any
 *    mid-decode pool pressure is resolved by preempting the
 *    lowest-priority request;
 *  - chunked prefill: prompts are fed <= 256 tokens per iteration
 *    *inside* the decode batch's weight stream, so long prompts never
 *    stall decode latency the way a monolithic prefill would;
 *  - continuous batching: the batch is steered toward the Fig. 14
 *    knee (BatchPolicy), requests leave mid-flight and queued ones
 *    take their place the same iteration;
 *  - prefix caching: every request opens with the same 256-token
 *    system prompt (declared via Request::prefix_group for this
 *    analytic trace), so arrivals that find it resident skip those
 *    prefill chunks and share its refcounted KV blocks.
 *
 * Build & run:  ./build/examples/serving [--threads N|auto]
 *
 * --threads N additionally runs a small *functional* trace (real
 * tokens through the eval-scale transformer) with every mixed step
 * fanned across an N-worker pool, and reports the pool's measured
 * busy/idle fractions from ServerStats -- the pooled step is
 * bit-identical to serial, so N changes wall-clock only.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "model/workload.h"
#include "serve/scheduler.h"

using namespace mugi;

namespace {

/**
 * Functional serving on the worker pool: a 6-request eval-scale
 * trace, real tokens, INT4 KV, step_threads workers per mixed step.
 */
void
run_functional_pooled(std::size_t threads)
{
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(4, 128, 512);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 11);
    const serve::Engine engine(sim::make_mugi(256), transformer);

    serve::SchedulerConfig sched_config;
    sched_config.prefill_chunk_tokens = units::Tokens(16);
    sched_config.step_threads = threads;
    serve::Scheduler scheduler(engine, sched_config);

    for (int i = 0; i < 6; ++i) {
        serve::Request request;
        request.prompt = model::synthetic_tokens(
            12 + 5 * (i % 3), config.vocab,
            static_cast<std::uint32_t>(900 + i));
        request.max_new_tokens = units::Tokens(8 + i);
        scheduler.submit(request);
    }
    const std::vector<serve::FinishedRequest> finished =
        scheduler.run();

    std::size_t tokens = 0;
    for (const serve::FinishedRequest& f : finished) {
        tokens += f.generated.value();
    }
    const serve::ServerStats stats = scheduler.stats();
    std::printf(
        "\nFunctional pooled serving (%s, %zu worker thread%s): %zu "
        "requests, %zu tokens\n",
        config.name.c_str(), threads, threads == 1 ? "" : "s",
        finished.size(), tokens);
    std::printf(
        "  %zu of %zu steps pooled, mean worker busy %.0f%% / idle "
        "%.0f%%\n",
        stats.pooled_steps, stats.steps,
        100.0 * stats.mean_worker_busy,
        100.0 * stats.mean_worker_idle);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::size_t threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            // "auto" sizes the pool from the hardware.
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

    const model::ModelConfig model = model::llama2_70b();
    const serve::Engine engine(sim::make_mugi(256), model);

    serve::SchedulerConfig config;
    // ~1 GiB of KVQ INT4 cache: enough for ~10 of the requests below
    // to be resident at once, so the trace exercises the queue.
    config.kv_budget_bytes = units::Bytes(1ull << 30);
    config.prefill_chunk_tokens = units::Tokens(256);
    serve::Scheduler scheduler(engine, config);

    std::printf("Serving %s on %s (Fig. 14 batch target %zu, KV "
                "budget %.0f MiB)\n",
                model.name.c_str(), engine.design().name.c_str(),
                scheduler.policy().target_batch(),
                static_cast<double>(config.kv_budget_bytes.value()) /
                    (1 << 20));

    // A 12-request trace: the first 8 arrive together (>= 8
    // concurrent in flight), four more trickle in later; prompts
    // 256..3072 tokens, generations 24..46 tokens.
    std::size_t streamed = 0;
    const double stagger_s =
        4.0 * sim::run_workload(engine.design(),
                                model::build_decode_workload(model, 8,
                                                             1024))
                  .runtime_s;
    for (int i = 0; i < 12; ++i) {
        serve::Request request;
        request.analytic_prompt_tokens = units::Tokens(
            256 + 256 * (i % 8) + (i >= 8 ? 1024 : 0));
        // Common 256-token system prompt: arrivals that find it
        // resident adopt its blocks instead of re-prefilling.
        request.prefix_group = 1;
        request.prefix_tokens = units::Tokens(256);
        request.max_new_tokens = units::Tokens(24 + 2 * i);
        request.arrival_time_s =
            i < 8 ? 0.0 : static_cast<double>(i - 7) * stagger_s;
        request.on_token = [&streamed](std::uint64_t, std::size_t,
                                       int) { ++streamed; };
        scheduler.submit(request);
    }

    const std::vector<serve::FinishedRequest> finished =
        scheduler.run();

    std::printf("\n%-4s %7s %6s %10s %10s %10s %s\n", "req",
                "prompt", "gen", "queue(s)", "ttft(s)", "tpot(s)",
                "reason");
    for (const serve::FinishedRequest& f : finished) {
        std::printf("#%-3llu %7zu %6zu %10.2f %10.2f %10.3f %s\n",
                    static_cast<unsigned long long>(f.id),
                    f.prompt_tokens.value(), f.generated.value(), f.queue_s(),
                    f.ttft_s(), f.tpot_s(),
                    serve::finish_reason_name(f.reason));
    }

    const serve::ServerStats stats = scheduler.stats();
    std::printf(
        "\nHorizon: %zu iterations, %zu prompt + %zu decode tokens "
        "(%zu streamed to callers)\n",
        stats.steps, stats.prefill_tokens.value(),
        stats.decode_tokens.value(),
        streamed);
    std::printf(
        "  throughput %.2f tokens/s, %.2f tokens/s/W, %.3e J/token\n",
        stats.horizon.throughput_tokens_per_s,
        stats.horizon.power_efficiency,
        stats.horizon.energy_per_token_j);
    std::printf(
        "  latency: mean queue %.2f s, mean TTFT %.2f s (max %.2f), "
        "mean TPOT %.3f s\n",
        stats.mean_queue_s, stats.mean_ttft_s, stats.max_ttft_s,
        stats.mean_tpot_s);
    // Tail latency: the serving number a mean hides.
    std::printf(
        "  TTFT p50/p95/p99 %.2f/%.2f/%.2f s, TPOT p50/p95/p99 "
        "%.3f/%.3f/%.3f s\n",
        stats.p50_ttft_s, stats.p95_ttft_s, stats.p99_ttft_s,
        stats.p50_tpot_s, stats.p95_tpot_s, stats.p99_tpot_s);
    std::printf("  peak KV %.1f MiB of %.0f MiB budget (%.0f%% pool "
                "utilization, %zu preemption%s)\n",
                static_cast<double>(stats.peak_kv_bytes.value()) /
                    (1 << 20),
                static_cast<double>(stats.kv_budget_bytes.value()) /
                    (1 << 20),
                100.0 * stats.peak_pool_utilization,
                stats.preemptions,
                stats.preemptions == 1 ? "" : "s");
    std::printf("  prefix cache: %zu hit%s, %zu shared block "
                "group%s, %zu prefill tokens saved\n",
                stats.prefix_hits, stats.prefix_hits == 1 ? "" : "s",
                stats.shared_blocks.value(),
                stats.shared_blocks == units::Blocks(1) ? "" : "s",
                stats.saved_prefill_tokens.value());
    std::printf("  overload: %zu shed, %zu admission timeouts, "
                "%zu slow-client cancels, %zu faults injected\n",
                stats.requests_shed, stats.admission_timeouts,
                stats.slow_client_cancels, stats.faults_injected);

    // Contrast with serving the same trace one request at a time:
    // every request would pay its own WOQ weight stream per token.
    sim::PerfAccumulator serial;
    for (const serve::FinishedRequest& f : finished) {
        for (std::size_t t = 0; t < f.generated.value(); ++t) {
            serial.add(sim::run_workload(
                engine.design(),
                model::build_decode_workload(
                    model, 1, f.prompt_tokens.value() + t + 1)));
        }
    }
    std::printf(
        "\nOne-request-at-a-time decode of the same trace: %.2f "
        "tokens/s (scheduler: %.2fx)\n",
        serial.total().throughput_tokens_per_s,
        stats.horizon.throughput_tokens_per_s /
            serial.total().throughput_tokens_per_s);

    if (threads > 0) {
        run_functional_pooled(threads);
    }
    return 0;
}
