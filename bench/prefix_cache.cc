/**
 * @file
 * Prefix-cache study: a trace of requests sharing a long common
 * system prompt, served with cross-request KV block sharing on vs
 * off (serve::SchedulerConfig::prefix_caching), for the float
 * baseline and the Mugi INT4-KVQ cache.
 *
 * With sharing on, admission maps each later request's shared prompt
 * blocks onto the first request's resident (refcounted) blocks:
 * their prefill chunks are skipped -- under KVQ that saves the
 * quantization pass too -- admission charges only the unshared tail,
 * and the pool counts every shared block once.  The acceptance bar
 * (enforced by the exit code, and mirrored in
 * tests/serve/scheduler_test.cc):
 *
 *  - prefix-cache hits > 0 with sharing on, 0 off;
 *  - prefill_tokens strictly lower and mean TTFT strictly better
 *    with sharing on;
 *  - bit-identical generated tokens on vs off for both precisions;
 *  - peak pool bytes strictly lower with sharing on (shared blocks
 *    counted exactly once).
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"
#include "serve/scheduler.h"

using namespace mugi;

namespace {

constexpr std::size_t kRequests = 6;
constexpr std::size_t kSystemPromptTokens = 40;  // 5 blocks at B=8.
constexpr std::size_t kSuffixTokens = 6;
constexpr std::size_t kMaxNew = 8;
constexpr std::size_t kBlockTokens = 8;

struct TraceResult {
    serve::ServerStats stats;
    /** Generated tokens per request, in submission order. */
    std::vector<std::vector<int>> tokens;
};

TraceResult
serve_trace(const serve::Engine& engine,
            const std::vector<std::vector<int>>& prompts,
            quant::KvPrecision precision, bool sharing)
{
    serve::SchedulerConfig config;
    config.kv_block_tokens = units::Tokens(kBlockTokens);
    config.prefill_chunk_tokens = units::Tokens(64);
    config.max_batch = kRequests;
    config.prefix_caching = sharing;
    serve::Scheduler scheduler(engine, config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        serve::Request request;
        request.prompt = prompts[i];
        request.max_new_tokens = units::Tokens(kMaxNew);
        request.kv_precision = precision;
        // The donor arrives first; everyone else one modeled instant
        // later, once its prefill has made the system prompt
        // resident.
        request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
        ids.push_back(scheduler.submit(std::move(request)));
    }
    std::vector<serve::FinishedRequest> finished = scheduler.run();

    TraceResult result;
    result.stats = scheduler.stats();
    result.tokens.resize(prompts.size());
    for (serve::FinishedRequest& f : finished) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == f.id) {
                result.tokens[i] = std::move(f.tokens);
                break;
            }
        }
    }
    return result;
}

}  // namespace

int
main()
{
    bench::print_title(
        "Prefix caching: shared-system-prompt trace, sharing on vs "
        "off");

    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 4242);
    const serve::Engine engine(sim::make_mugi(64), transformer);

    const std::vector<int> system_prompt = model::synthetic_tokens(
        kSystemPromptTokens, config.vocab, 1001);
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < kRequests; ++i) {
        std::vector<int> prompt = system_prompt;
        const std::vector<int> suffix = model::synthetic_tokens(
            kSuffixTokens, config.vocab,
            static_cast<std::uint32_t>(2000 + i));
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        prompts.push_back(std::move(prompt));
    }
    const std::size_t prompt_len =
        kSystemPromptTokens + kSuffixTokens;
    std::printf("%zu requests, prompt %zu tokens (%zu shared), gen "
                "%zu, block %zu tokens\n",
                kRequests, prompt_len, kSystemPromptTokens, kMaxNew,
                kBlockTokens);

    // The modeled admission discount of a full prefix hit.
    for (const auto& [name, precision] :
         {std::pair{"float", quant::KvPrecision::kFloat},
          std::pair{"int4-kvq", quant::KvPrecision::kInt4}}) {
        const sim::KvFootprint full = sim::kv_footprint(
            config, units::Positions(prompt_len + 1), precision,
            units::Tokens(kBlockTokens));
        const sim::KvFootprint tail = sim::kv_footprint(
            config, units::Positions(prompt_len + 1), precision,
            units::Tokens(kBlockTokens),
            units::Positions(kSystemPromptTokens));
        std::printf("  %-9s admission: %zu -> %zu blocks/layer "
                    "(%.1f -> %.1f KiB)\n",
                    name, full.blocks.value(),
                    tail.blocks.value(),
                    static_cast<double>(full.paged_bytes.value()) /
                        1024.0,
                    static_cast<double>(tail.paged_bytes.value()) /
                        1024.0);
    }

    bench::print_header("precision/sharing",
                        {"hits", "shr-blk", "saved-tok", "prefill",
                         "ttft-ms", "peak-KiB"});
    bool ok = true;
    for (const auto& [pname, precision] :
         {std::pair{"float", quant::KvPrecision::kFloat},
          std::pair{"int4-kvq", quant::KvPrecision::kInt4}}) {
        const TraceResult off =
            serve_trace(engine, prompts, precision, false);
        const TraceResult on =
            serve_trace(engine, prompts, precision, true);
        for (const auto& [mname, r] :
             {std::pair{"off", &off}, std::pair{"on", &on}}) {
            bench::print_row(
                std::string(pname) + "/" + mname,
                {static_cast<double>(r->stats.prefix_hits),
                 static_cast<double>(r->stats.shared_blocks.value()),
                 static_cast<double>(
                     r->stats.saved_prefill_tokens.value()),
                 static_cast<double>(
                     r->stats.prefill_tokens.value()),
                 r->stats.mean_ttft_s * 1e3,
                 static_cast<double>(r->stats.peak_kv_bytes.value()) /
                     1024.0},
                "%9.4g");
        }
        ok &= off.stats.prefix_hits == 0;
        ok &= on.stats.prefix_hits > 0;
        ok &= on.stats.prefill_tokens < off.stats.prefill_tokens;
        ok &= on.stats.mean_ttft_s < off.stats.mean_ttft_s;
        ok &= on.stats.peak_kv_bytes < off.stats.peak_kv_bytes;
        ok &= on.tokens == off.tokens;  // Bit-identical generations.
    }

    std::printf("\nprefix hits > 0, prefill and TTFT strictly "
                "better, shared blocks counted once, and generations "
                "bit-identical at both precisions: %s\n",
                ok ? "yes" : "NO (regression!)");
    return ok ? 0 : 1;
}
