/**
 * @file
 * KV paging study: sessions admitted and pool utilization at a fixed
 * KV budget, contiguous full-length projection vs the scheduler's
 * paged block reservation, for the Mugi INT4 KVQ cache and the float
 * baseline.
 *
 * The budget is sized to hold two *float* requests at full projected
 * length, so the four rows decompose the two memory wins the serving
 * stack stacks up:
 *  - KVQ (Sec. 2.3.3) shrinks every block ~8x vs float storage;
 *  - paged reservation admits against prompt blocks + a watermark
 *    instead of prompt + max_new_tokens, reclaiming blocks by
 *    preemption when decode growth outruns the pool.
 * Full-length projection charges each request its whole generation
 * up front and never preempts.  Every request here has the same
 * length, so projection admits exactly budget / full-length
 * footprint of them at a time: its rows run the same scheduler with
 * that batch cap and no budget, and report peak utilization against
 * the budget.
 * Paged admission must keep strictly more sessions resident than
 * projection at the same budget (enforced by the trailing check and
 * by tests/serve/scheduler_test.cc).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/scheduler.h"

using namespace mugi;

namespace {

struct TraceResult {
    std::size_t max_active = 0;
    serve::ServerStats stats;
};

constexpr std::size_t kRequests = 24;
constexpr std::size_t kPrompt = 32;
constexpr std::size_t kGen = 160;

TraceResult
serve_trace(const serve::Engine& engine, quant::KvPrecision precision,
            std::size_t max_batch, units::Bytes budget_bytes)
{
    serve::SchedulerConfig config;
    config.kv_budget_bytes = budget_bytes;
    config.prefill_chunk_tokens = units::Tokens(64);
    config.max_batch = max_batch;
    serve::Scheduler scheduler(engine, config);
    for (std::size_t i = 0; i < kRequests; ++i) {
        serve::Request request;
        request.analytic_prompt_tokens = units::Tokens(kPrompt);
        request.max_new_tokens = units::Tokens(kGen);
        request.kv_precision = precision;
        scheduler.submit(std::move(request));
    }
    TraceResult result;
    while (scheduler.step()) {
        result.max_active =
            std::max(result.max_active, scheduler.active());
    }
    result.stats = scheduler.stats();
    return result;
}

}  // namespace

int
main()
{
    bench::print_title(
        "KV paging: admission discipline at a fixed KV budget");

    const model::ModelConfig model = model::llama2_7b();
    const serve::Engine engine(sim::make_mugi(256), model);

    // One request at full projected length, in whole default-size
    // blocks; the budget holds two of them in float.
    const auto full_length = [&](quant::KvPrecision precision) {
        return sim::kv_footprint(model, units::Positions(kPrompt + kGen),
                                 precision)
            .paged_bytes;
    };
    const units::Bytes budget =
        full_length(quant::KvPrecision::kFloat) * 2;
    std::printf("model %s, %zu requests (prompt %zu, gen %zu), budget "
                "%.1f MiB\n",
                model.name.c_str(), kRequests, kPrompt, kGen,
                static_cast<double>(budget.value()) / (1 << 20));

    const std::vector<
        std::pair<const char*, quant::KvPrecision>>
        precisions = {
            {"float", quant::KvPrecision::kFloat},
            {"int4-kvq", quant::KvPrecision::kInt4},
        };
    bench::print_header("precision/admission",
                        {"sessions", "preempts", "peak-util",
                         "tokens/s", "horizon-s"});
    bool paged_wins = true;
    for (const auto& [pname, precision] : precisions) {
        const std::size_t projected =
            std::min(kRequests, budget / full_length(precision));
        const TraceResult projection =
            serve_trace(engine, precision, projected, units::Bytes(0));
        const TraceResult paged =
            serve_trace(engine, precision, kRequests, budget);
        const auto row = [&](const char* mname, const TraceResult& r,
                             double peak_util) {
            bench::print_row(
                std::string(pname) + "/" + mname,
                {static_cast<double>(r.max_active),
                 static_cast<double>(r.stats.preemptions), peak_util,
                 r.stats.horizon.throughput_tokens_per_s,
                 r.stats.horizon.runtime_s},
                "%9.3g");
        };
        row("projection", projection,
            static_cast<double>(projection.stats.peak_kv_bytes.value()) /
                static_cast<double>(budget.value()));
        row("paged", paged, paged.stats.peak_pool_utilization);
        paged_wins &= paged.max_active > projection.max_active;
    }
    std::printf("\npaged reservation admitted strictly more "
                "concurrent sessions than full projection at every "
                "precision: %s\n",
                paged_wins ? "yes" : "NO (regression!)");
    return paged_wins ? 0 : 1;
}
