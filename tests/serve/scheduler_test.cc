/**
 * @file
 * Acceptance contract of the request-lifecycle API
 * (serve::Scheduler): (1) a mixed prefill+decode step preserves the
 * exact-sum workload invariant -- its MACs / nonlinear elements
 * equal the sum of the equivalent standalone prefill-chunk and
 * decode workloads; (2) the functional scheduler's output is
 * bit-identical to serving the same requests one at a time; (3)
 * admission control keeps the exact KV footprint under the budget.
 */

#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/workload.h"
#include "support/audit.h"

namespace mugi {
namespace serve {
namespace {

// ---- (1) Mixed-step workload: the exact-sum invariant. ----

TEST(MixedStepWorkload, ExactSumOfStandaloneChunkAndDecodeWorkloads)
{
    const model::ModelConfig config = model::llama2_70b();
    const std::vector<std::size_t> decode_contexts = {64, 300, 4096};
    const std::vector<model::PrefillChunk> chunks = {
        {0, 32}, {100, 57}, {512, 256}};

    const model::Workload mixed = model::build_mixed_step_workload(
        config, decode_contexts, chunks);

    std::uint64_t macs = 0, nonlinear = 0;
    std::size_t tokens = 0;
    for (const std::size_t c : decode_contexts) {
        const model::Workload single =
            model::build_decode_workload(config, 1, c);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
        tokens += single.tokens();
    }
    for (const model::PrefillChunk& chunk : chunks) {
        const model::Workload single =
            model::build_prefill_chunk_workload(config, chunk);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
        tokens += single.tokens();
    }
    EXPECT_EQ(mixed.total_macs(), macs);
    EXPECT_EQ(mixed.total_nonlinear_elements(), nonlinear);
    EXPECT_EQ(mixed.tokens(), tokens);

    // The whole mixed step streams the WOQ weights exactly once.
    const model::Workload one =
        model::build_decode_workload(config, 1, decode_contexts[0]);
    EXPECT_EQ(mixed.total_weight_bytes(), one.total_weight_bytes());
}

TEST(MixedStepWorkload, ChunkingNeverChangesTotalAttention)
{
    // Splitting a prompt into chunks must not change the summed
    // causal-attention volume: attended() is exact, not an average.
    const model::ModelConfig config = model::llama2_7b();
    const model::PrefillChunk whole = {0, 100};
    const std::vector<model::PrefillChunk> split = {
        {0, 50}, {50, 30}, {80, 20}};

    const model::Workload whole_w =
        model::build_prefill_chunk_workload(config, whole);
    std::uint64_t macs = 0, nonlinear = 0;
    for (const model::PrefillChunk& chunk : split) {
        const model::Workload w =
            model::build_prefill_chunk_workload(config, chunk);
        macs += w.total_macs();
        nonlinear += w.total_nonlinear_elements();
    }
    EXPECT_EQ(whole_w.total_macs(), macs);
    EXPECT_EQ(whole_w.total_nonlinear_elements(), nonlinear);

    // attended() arithmetic: chunk of C tokens after S cached ones
    // attends S*C + C(C+1)/2 positions.
    EXPECT_EQ((model::PrefillChunk{0, 4}).attended(), 10u);
    EXPECT_EQ((model::PrefillChunk{10, 3}).attended(), 36u);
}

TEST(MixedStepWorkload, EmptyChunksDegenerateToMixedDecode)
{
    const model::ModelConfig config = model::llama2_13b();
    const std::vector<std::size_t> contexts = {17, 900};
    const model::Workload decode_only =
        model::build_mixed_decode_workload(config, contexts);
    const model::Workload step =
        model::build_mixed_step_workload(config, contexts, {});
    EXPECT_EQ(step.total_macs(), decode_only.total_macs());
    EXPECT_EQ(step.total_weight_bytes(),
              decode_only.total_weight_bytes());
    EXPECT_EQ(step.total_nonlinear_elements(),
              decode_only.total_nonlinear_elements());
    EXPECT_EQ(step.tokens(), decode_only.tokens());
}

// ---- (2) Functional scheduler == sequential serving. ----

TEST(Scheduler, FunctionalOutputBitIdenticalToSequentialServing)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 777);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<std::size_t> prompt_lens = {5, 9, 13, 6};
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < prompt_lens.size(); ++i) {
        prompts.push_back(model::synthetic_tokens(
            prompt_lens[i], config.vocab,
            static_cast<std::uint32_t>(40 + i)));
    }
    const std::size_t kMaxNew = 6;

    // Reference: one request at a time, full prefill then stepping.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Scheduler: tiny chunks force multi-chunk prefill, and a small
    // batch target forces queueing -- neither may change numerics.
    SchedulerConfig sched_config;
    sched_config.prefill_chunk_tokens = units::Tokens(4);
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (const std::vector<int>& prompt : prompts) {
        Request request;
        request.prompt = prompt;
        request.max_new_tokens = units::Tokens(kMaxNew);
        ids.push_back(scheduler.submit(std::move(request)));
    }
    std::vector<FinishedRequest> finished = scheduler.run();

    ASSERT_EQ(finished.size(), prompts.size());
    for (std::size_t i = 0; i < finished.size(); ++i) {
        // Map back by id (finish order may differ from submission).
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(ids.begin(),
                          std::find(ids.begin(), ids.end(),
                                    finished[i].id)));
        ASSERT_LT(idx, expected.size());
        EXPECT_EQ(finished[i].tokens, expected[idx])
            << "request " << idx << " diverged from sequential serving";
        EXPECT_EQ(finished[i].generated, units::Tokens(kMaxNew));
        EXPECT_EQ(finished[i].prompt_tokens,
                  units::Tokens(prompt_lens[idx]));
        EXPECT_EQ(finished[i].reason, FinishReason::kMaxTokens);
    }
}

TEST(Scheduler, StopTokenEndsGenerationEarly)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 321);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> prompt =
        model::synthetic_tokens(7, config.vocab, 11);

    // Learn the greedy continuation, then stop on its third token.
    Request probe;
    probe.prompt = prompt;
    probe.max_new_tokens = units::Tokens(5);
    Scheduler probe_scheduler(engine, {});
    probe_scheduler.submit(probe);
    const std::vector<int> continuation =
        probe_scheduler.run()[0].tokens;
    ASSERT_EQ(continuation.size(), 5u);

    Request request;
    request.prompt = prompt;
    request.max_new_tokens = units::Tokens(5);
    request.stop_token = continuation[2];
    Scheduler scheduler(engine, {});
    scheduler.submit(std::move(request));
    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].reason, FinishReason::kStopToken);
    ASSERT_EQ(finished[0].tokens.size(), 3u);
    EXPECT_EQ(finished[0].tokens[2], continuation[2]);
}

TEST(Scheduler, StreamsTokensInOrder)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    std::vector<std::pair<std::size_t, int>> streamed;
    Request request;
    request.prompt = model::synthetic_tokens(6, config.vocab, 3);
    request.max_new_tokens = units::Tokens(4);
    request.on_token = [&](std::uint64_t, std::size_t index,
                           int token) {
        streamed.emplace_back(index, token);
    };
    Scheduler scheduler(engine, {});
    scheduler.submit(std::move(request));
    const std::vector<FinishedRequest> finished = scheduler.run();

    ASSERT_EQ(streamed.size(), 4u);
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].first, i);
        EXPECT_EQ(streamed[i].second, finished[0].tokens[i]);
    }
}

// ---- (3) Admission control under the KV budget. ----

TEST(Scheduler, KvBudgetCapsConcurrencyAndPeakFootprint)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    // Per-request projection: prompt 96 + 32 new tokens of INT4 KV.
    const units::Bytes per_request =
        quant::KvCache::bytes_per_position(
            config.num_kv_heads, config.head_dim(),
            quant::KvPrecision::kInt4) *
        config.num_layers * (96 + 32);

    SchedulerConfig sched_config;
    sched_config.kv_budget_bytes =
        per_request * 2 + per_request / 2;
    sched_config.prefill_chunk_tokens = units::Tokens(48);
    sched_config.max_batch = 8;  // Budget binds before the batch cap.
    Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 5; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(96);
        request.max_new_tokens = units::Tokens(32);
        scheduler.submit(std::move(request));
    }

    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    EXPECT_EQ(max_active, 2u) << "budget admits exactly two requests";

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 5u);
    EXPECT_LE(stats.peak_kv_bytes, sched_config.kv_budget_bytes);
    EXPECT_GT(stats.peak_kv_bytes, units::Bytes(0));
    // Later requests waited in the admission queue.
    EXPECT_GT(stats.mean_queue_s, 0.0);
}

TEST(Scheduler, RequestOverTheKvBudgetIsRefused)
{
    // Llama-2 70B under 1 GiB: at 84,480 B per INT4 position, 12,710
    // positions fit.  12,701 + 10 do not, so the request could only
    // run by overcommitting the budget; it retires at submit without
    // a block.  12,700 + 10 fit token by token but not in whole
    // 16-token blocks plus the watermark, so it still runs, alone.
    const Engine engine(sim::make_mugi(256), model::llama2_70b());
    SchedulerConfig sched_config;
    sched_config.kv_budget_bytes = units::Bytes(std::size_t{1} << 30);
    Scheduler scheduler(engine, sched_config);
    for (const std::size_t prompt : {12701u, 12700u}) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(prompt);
        request.max_new_tokens = units::Tokens(10);
        scheduler.submit(std::move(request));
    }
    EXPECT_EQ(scheduler.queued(), 1u);
    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    EXPECT_EQ(finished[0].reason, FinishReason::kOverBudget);
    EXPECT_EQ(finished[0].generated, units::Tokens(0));
    EXPECT_EQ(finished[1].reason, FinishReason::kMaxTokens);
    EXPECT_EQ(finished[1].generated, units::Tokens(10));
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_GT(stats.peak_kv_bytes, sched_config.kv_budget_bytes);
}

// ---- Paged KV: block reservation and preemption. ----

TEST(Scheduler, PreemptionKeepsOutputBitIdentical)
{
    // The paged-KV acceptance bar: a run that evicts a request under
    // memory pressure and re-prefills it must emit exactly the tokens
    // an uncontended sequential run emits.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 555);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<std::vector<int>> prompts = {
        model::synthetic_tokens(6, config.vocab, 71),
        model::synthetic_tokens(6, config.vocab, 72)};
    const std::size_t kMaxNew = 10;

    // Reference: one request at a time, no contention.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Budget admits both prompts but not both full generations: with
    // 4-token blocks, each request needs 2 block-groups at admission
    // (7 positions) and 4 by the end (16 positions), so a 5-group
    // budget forces the later-admitted request out mid-decode.  The
    // scheduled run goes twice, with serial steps and on the
    // Scheduler's 2-worker step pool.
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    std::vector<std::vector<FinishedRequest>> runs;
    for (const std::size_t step_threads : {0u, 2u}) {
        SCOPED_TRACE(step_threads);
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(4);
        sched_config.kv_budget_bytes = group * 5;
        sched_config.max_batch = 2;
        sched_config.step_threads = step_threads;
        Scheduler scheduler(engine, sched_config);
        std::vector<std::uint64_t> ids;
        for (const std::vector<int>& prompt : prompts) {
            Request request;
            request.prompt = prompt;
            request.max_new_tokens = units::Tokens(kMaxNew);
            ids.push_back(scheduler.submit(std::move(request)));
        }
        const std::vector<FinishedRequest> finished = scheduler.run();

        EXPECT_GE(scheduler.preemptions(), 1u)
            << "the budget must actually trigger an eviction";
        ASSERT_EQ(finished.size(), prompts.size());
        std::size_t preempted_requests = 0;
        for (const FinishedRequest& f : finished) {
            const std::size_t idx =
                static_cast<std::size_t>(std::distance(
                    ids.begin(),
                    std::find(ids.begin(), ids.end(), f.id)));
            ASSERT_LT(idx, expected.size());
            EXPECT_EQ(f.tokens, expected[idx])
                << "request " << idx
                << " diverged after preempt + re-prefill";
            EXPECT_EQ(f.generated, units::Tokens(kMaxNew));
            preempted_requests += f.preemptions > 0 ? 1 : 0;
        }
        EXPECT_GE(preempted_requests, 1u);
        // Equal priorities: the tie-break evicts the later-admitted
        // request, never the first.
        for (const FinishedRequest& f : finished) {
            if (f.id == ids[1]) {
                EXPECT_GE(f.preemptions, 1u);
            } else {
                EXPECT_EQ(f.id, ids[0]);
                EXPECT_EQ(f.preemptions, 0u);
            }
        }
        const ServerStats stats = scheduler.stats();
        EXPECT_EQ(stats.preemptions, scheduler.preemptions());
        // Recompute work shows up as extra prefill tokens: both
        // prompts plus at least the victim's replayed history.
        EXPECT_GT(stats.prefill_tokens,
                  units::Tokens(2 * prompts[0].size()));
        EXPECT_EQ(stats.pooled_steps,
                  step_threads > 0 ? stats.steps : 0u);
        runs.push_back(finished);
    }
    // The pool changes when work runs, never what it computes or the
    // modeled clock.
    ASSERT_EQ(runs[1].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
        EXPECT_EQ(runs[1][i].id, runs[0][i].id);
        EXPECT_EQ(runs[1][i].tokens, runs[0][i].tokens);
        EXPECT_EQ(runs[1][i].first_token_s, runs[0][i].first_token_s);
        EXPECT_EQ(runs[1][i].finished_s, runs[0][i].finished_s);
    }
}

TEST(Scheduler, PriorityChoosesThePreemptionVictim)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 556);
    const Engine engine(sim::make_mugi(64), transformer);

    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);

    // The earlier-submitted request has *lower* priority, so it --
    // not the default tie-break victim -- must be evicted.
    Request low;
    low.prompt = model::synthetic_tokens(6, config.vocab, 81);
    low.max_new_tokens = units::Tokens(10);
    low.priority = -1;
    const std::uint64_t low_id = scheduler.submit(std::move(low));
    Request high;
    high.prompt = model::synthetic_tokens(6, config.vocab, 82);
    high.max_new_tokens = units::Tokens(10);
    const std::uint64_t high_id = scheduler.submit(std::move(high));

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    ASSERT_GE(scheduler.preemptions(), 1u);
    for (const FinishedRequest& f : finished) {
        if (f.id == low_id) {
            EXPECT_GE(f.preemptions, 1u);
        } else {
            EXPECT_EQ(f.id, high_id);
            EXPECT_EQ(f.preemptions, 0u);
        }
    }
}

TEST(Scheduler, PagedReservationAdmitsMoreThanFullProjection)
{
    // The motivating claim: at the same budget, block-level
    // reservation keeps strictly more sessions resident than
    // admitting against each request's full projected length.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const std::size_t B = 8;
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(B)).paged_bytes;
    const units::Bytes budget = group * 12;

    // Full projection charges every request ceil((24 + 60) / 8) = 11
    // groups up front, so the 12-group budget holds one at a time.
    const units::Bytes projected = sim::kv_footprint(
        config, units::Positions(24 + 60), quant::KvPrecision::kInt4,
        units::Tokens(B)).paged_bytes;
    EXPECT_EQ(projected, group * 11);
    const std::size_t projection_sessions = budget / projected;
    EXPECT_EQ(projection_sessions, 1u);

    // Paged charges ceil(25/8) = 4 groups + watermark and reclaims
    // under pressure.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(B);
    sched_config.kv_budget_bytes = budget;
    sched_config.prefill_chunk_tokens = units::Tokens(24);
    sched_config.max_batch = 8;
    Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 4; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(24);
        request.max_new_tokens = units::Tokens(60);
        scheduler.submit(std::move(request));
    }
    std::size_t active_paged = 0;
    while (scheduler.step()) {
        active_paged = std::max(active_paged, scheduler.active());
    }
    const ServerStats paged = scheduler.stats();

    EXPECT_EQ(paged.finished, 4u);
    EXPECT_GT(active_paged, projection_sessions);
    // Paged respects the budget's high-water mark, and fills more of
    // it than one resident projection could.
    EXPECT_LE(paged.peak_kv_bytes, budget);
    EXPECT_GT(paged.peak_kv_bytes, projected);
    EXPECT_DOUBLE_EQ(paged.peak_pool_utilization,
                     static_cast<double>(paged.peak_kv_bytes.value()) /
                         static_cast<double>(budget.value()));
}

TEST(Scheduler, PoolExhaustionRefusesAdmissionUntilBlocksFree)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const std::size_t B = 8;
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(B)).paged_bytes;

    // Each request needs 4 block-groups (25 positions at B=8); a
    // 5-group budget cannot hold two plus the watermark, so the
    // second waits for the first to release its blocks.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(B);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 2; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(24);
        request.max_new_tokens = units::Tokens(4);
        scheduler.submit(std::move(request));
    }
    std::size_t max_active = 0;
    bool saw_refusal = false;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        saw_refusal |=
            scheduler.active() == 1 && scheduler.queued() == 1;
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    EXPECT_EQ(max_active, 1u);
    EXPECT_TRUE(saw_refusal);
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.preemptions, 0u);
}

// ---- Prefix caching: refcounted block reuse across requests. ----

TEST(Scheduler, PrefixCachingSharesBlocksAndKeepsTokensBitIdentical)
{
    // The tentpole acceptance bar: requests sharing a long system
    // prompt reuse the donor's resident KV blocks -- prefill work
    // drops, TTFT improves, and the generated tokens stay
    // bit-identical to a run with sharing disabled.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 808);
    const Engine engine(sim::make_mugi(64), transformer);

    // 12 shared tokens (3 blocks at B=4) + 3 distinct suffix tokens.
    const std::vector<int> system_prompt =
        model::synthetic_tokens(12, config.vocab, 900);
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<int> prompt = system_prompt;
        const std::vector<int> suffix = model::synthetic_tokens(
            3, config.vocab, static_cast<std::uint32_t>(910 + i));
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        prompts.push_back(std::move(prompt));
    }

    const auto serve_trace = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(4);
        sched_config.prefill_chunk_tokens = units::Tokens(64);
        sched_config.max_batch = 4;
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < prompts.size(); ++i) {
            Request request;
            request.prompt = prompts[i];
            // The donor finishes early so its blocks outlive it via
            // the sharers' refcounts.
            request.max_new_tokens = units::Tokens(i == 0 ? 2 : 6);
            // Sharers arrive one modeled instant later, after the
            // donor's prefill made the prefix resident.
            request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
            ids.push_back(scheduler.submit(std::move(request)));
        }
        std::vector<FinishedRequest> finished = scheduler.run();
        // Everything released: the pool must drain to exactly zero.
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
        std::vector<std::vector<int>> tokens(prompts.size());
        for (FinishedRequest& f : finished) {
            const std::size_t idx = static_cast<std::size_t>(
                std::distance(ids.begin(),
                              std::find(ids.begin(), ids.end(),
                                        f.id)));
            tokens[idx] = std::move(f.tokens);
        }
        return std::make_pair(std::move(tokens), scheduler.stats());
    };

    const auto [tokens_off, stats_off] = serve_trace(false);
    const auto [tokens_on, stats_on] = serve_trace(true);

    // Bit-identical generations, request by request.
    ASSERT_EQ(tokens_on.size(), tokens_off.size());
    for (std::size_t i = 0; i < tokens_on.size(); ++i) {
        EXPECT_EQ(tokens_on[i], tokens_off[i])
            << "request " << i << " diverged under prefix sharing";
    }

    // Three sharers each mapped 3 blocks / 12 tokens of prompt.
    EXPECT_EQ(stats_off.prefix_hits, 0u);
    EXPECT_EQ(stats_off.saved_prefill_tokens, units::Tokens(0));
    EXPECT_EQ(stats_on.prefix_hits, 3u);
    EXPECT_EQ(stats_on.shared_blocks, units::Blocks(9));
    EXPECT_EQ(stats_on.saved_prefill_tokens, units::Tokens(36));
    EXPECT_EQ(stats_on.prefill_tokens + units::Tokens(36), stats_off.prefill_tokens);
    // Skipping prefill work makes the mean TTFT strictly better, and
    // physical sharing makes the peak footprint strictly smaller.
    EXPECT_LT(stats_on.mean_ttft_s, stats_off.mean_ttft_s);
    EXPECT_LT(stats_on.peak_kv_bytes, stats_off.peak_kv_bytes);
}

TEST(Scheduler, PreemptionNeverFreesASharedBlockUnderTheSharer)
{
    // A sharer evicted under pressure must not take the donor's
    // blocks with it, and (re-)admission plus recompute must keep
    // its output bit-identical to an uncontended run.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 809);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<int> system_prompt =
        model::synthetic_tokens(8, config.vocab, 930);
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 2; ++i) {
        std::vector<int> prompt = system_prompt;
        const std::vector<int> suffix = model::synthetic_tokens(
            2, config.vocab, static_cast<std::uint32_t>(940 + i));
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        prompts.push_back(std::move(prompt));
    }
    const std::size_t kMaxNew = 8;

    // Reference: uncontended sequential serving.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Each request ends at 17 positions = 5 groups (B=4); 2 groups
    // are shared, so the pair peaks at 8 distinct groups -- a
    // 6-group budget admits both (sharing discounts the sharer to 1
    // group up front) but must evict the sharer mid-decode.
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 6;
    sched_config.max_batch = 2;
    sched_config.prefill_chunk_tokens = units::Tokens(64);
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        Request request;
        request.prompt = prompts[i];
        request.max_new_tokens = units::Tokens(kMaxNew);
        request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
        ids.push_back(scheduler.submit(std::move(request)));
    }
    const std::vector<FinishedRequest> finished = scheduler.run();

    EXPECT_GE(scheduler.preemptions(), 1u)
        << "the budget must actually evict the sharer";
    const ServerStats stats = scheduler.stats();
    EXPECT_GE(stats.prefix_hits, 1u) << "sharing must happen first";
    ASSERT_EQ(finished.size(), prompts.size());
    for (const FinishedRequest& f : finished) {
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(ids.begin(),
                          std::find(ids.begin(), ids.end(), f.id)));
        ASSERT_LT(idx, expected.size());
        EXPECT_EQ(f.tokens, expected[idx])
            << "request " << idx
            << " diverged after sharing + preemption";
    }
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

TEST(Scheduler, AnalyticPrefixGroupsShareRefcountedReservations)
{
    // Analytic serving shares prefixes like functional serving:
    // requests declaring a common prefix_group adopt a resident
    // donor's blocks, skip the shared chunks, and the pool holds the
    // shared blocks once across sharers.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    const auto serve_trace = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(16);
        sched_config.prefill_chunk_tokens = units::Tokens(128);
        sched_config.max_batch = 4;
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        for (std::size_t i = 0; i < 3; ++i) {
            Request request;
            request.analytic_prompt_tokens = units::Tokens(80);
            request.max_new_tokens = units::Tokens(8);
            request.prefix_group = 77;
            request.prefix_tokens = units::Tokens(64);
            request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
            scheduler.submit(std::move(request));
        }
        scheduler.run();
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0))
            << "refcounted blocks must unwind to exactly zero";
        return scheduler.stats();
    };

    const ServerStats off = serve_trace(false);
    const ServerStats on = serve_trace(true);
    EXPECT_EQ(off.finished, 3u);
    EXPECT_EQ(on.finished, 3u);
    EXPECT_EQ(off.prefix_hits, 0u);
    // Two sharers x 4 blocks x 16 tokens of skipped prefill.
    EXPECT_EQ(on.prefix_hits, 2u);
    EXPECT_EQ(on.shared_blocks, units::Blocks(8));
    EXPECT_EQ(on.saved_prefill_tokens, units::Tokens(128));
    EXPECT_EQ(on.prefill_tokens + units::Tokens(128), off.prefill_tokens);
    EXPECT_LT(on.mean_ttft_s, off.mean_ttft_s);
    // The shared blocks are held once, not per sharer.
    EXPECT_LT(on.peak_kv_bytes, off.peak_kv_bytes);
}

TEST(Scheduler, AnalyticSharerIsResidentBeforeThePressureCheck)
{
    // Regression: the sharer's adopted prefix must count as resident
    // the moment it is admitted.  It once was credited only after the
    // step, so the pre-step pressure check saw the full
    // un-discounted growth slack and preempt-thrashed the sharer on a
    // budget it actually fits.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(16)).paged_bytes;

    // Donor + sharer peak at 8 distinct groups (6 each, 4 shared);
    // with the watermark, 9 groups fit both for the whole run.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(16);
    sched_config.kv_budget_bytes = group * 9;
    sched_config.prefill_chunk_tokens = units::Tokens(128);
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    for (std::size_t i = 0; i < 2; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(80);
        request.max_new_tokens = units::Tokens(8);
        request.prefix_group = 5;
        request.prefix_tokens = units::Tokens(64);
        request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
        scheduler.submit(std::move(request));
    }
    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.prefix_hits, 1u);
    EXPECT_EQ(max_active, 2u) << "sharing must let both be resident";
    EXPECT_EQ(stats.preemptions, 0u)
        << "a sharer that fits the budget must not be thrashed";
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

TEST(Scheduler, SameGroupRequestsAdmittedTogetherEachHoldTheirBlocks)
{
    // Regression: two prefix_group requests admitted in the same
    // iteration both compute their prompts -- neither is resident to
    // share from yet -- so after the first step the pool holds two
    // copies.  The byte-reservation mirror analytic serving once
    // used took a shared reference on every prefix block a request's
    // position covered, its own included, and counted one copy.
    const model::ModelConfig config = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), config);
    const auto bytes_after_first_step = [&](std::size_t requests) {
        SchedulerConfig sched_config;
        sched_config.prefill_chunk_tokens = units::Tokens(256);
        sched_config.max_batch = 4;
        Scheduler scheduler(engine, sched_config);
        for (std::size_t i = 0; i < requests; ++i) {
            Request request;
            request.analytic_prompt_tokens = units::Tokens(256);
            request.max_new_tokens = units::Tokens(4);
            request.prefix_group = 1;
            request.prefix_tokens = units::Tokens(256);
            scheduler.submit(std::move(request));
        }
        EXPECT_TRUE(scheduler.step());
        EXPECT_EQ(scheduler.active(), requests);
        EXPECT_EQ(scheduler.stats().prefix_hits, 0u);
        EXPECT_EQ(scheduler.check_invariants(), "");
        return scheduler.kv_bytes_in_use();
    };
    // 16 blocks x 80 layers x 16 tokens x 1,056 B (8 INT4 KV heads
    // of 128 dims, K and V).
    const units::Bytes one = bytes_after_first_step(1);
    EXPECT_EQ(one, units::Bytes(21'626'880));
    EXPECT_EQ(bytes_after_first_step(2), one * 2);
}

TEST(Scheduler, PrefixMatchTakesTheDeepestResidentPrefixOfOneLayout)
{
    // A match needs the same KV precision and prefix group, reaches
    // only as far as the donor has fed and declared, and takes the
    // donor with the most whole blocks, not the earliest admitted
    // one.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(16);
    sched_config.prefill_chunk_tokens = units::Tokens(16);
    sched_config.max_batch = 16;
    Scheduler scheduler(engine, sched_config);
    const auto submit = [&](std::uint64_t group, std::size_t prefix,
                            quant::KvPrecision precision) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(80);
        request.max_new_tokens = units::Tokens(4);
        request.prefix_group = group;
        request.prefix_tokens = units::Tokens(prefix);
        request.kv_precision = precision;
        return scheduler.submit(std::move(request));
    };
    constexpr quant::KvPrecision kInt4 = quant::KvPrecision::kInt4;
    constexpr quant::KvPrecision kFloat = quant::KvPrecision::kFloat;
    submit(1, 32, kInt4);
    const std::uint64_t deep_donor = submit(1, 64, kInt4);
    submit(2, 64, kInt4);
    submit(3, 64, kFloat);
    ASSERT_TRUE(scheduler.step());

    // Its donor has fed one block of the four it declares.
    submit(2, 64, kInt4);
    ASSERT_TRUE(scheduler.step());
    EXPECT_EQ(scheduler.stats().prefix_hits, 1u);
    EXPECT_EQ(scheduler.stats().shared_blocks, units::Blocks(1));

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(scheduler.step());
    }
    ASSERT_EQ(scheduler.active(), 5u) << "every donor still resident";
    // 4 blocks of the second donor, not the first donor's 2.
    const std::uint64_t deep_sharer = submit(1, 64, kInt4);
    submit(3, 64, kInt4);   // Group 3's donor is float: no match.
    submit(3, 48, kFloat);  // 3 blocks, capped by its own prefix.
    ASSERT_TRUE(scheduler.step());
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.prefix_hits, 3u);
    EXPECT_EQ(stats.shared_blocks, units::Blocks(8));
    EXPECT_EQ(stats.saved_prefill_tokens, units::Tokens(128));

    // With only the first donor left in group 1, its own 32-token
    // declaration bounds the match.
    ASSERT_TRUE(scheduler.cancel(deep_donor));
    ASSERT_TRUE(scheduler.cancel(deep_sharer));
    submit(1, 64, kInt4);
    ASSERT_TRUE(scheduler.step());
    EXPECT_EQ(scheduler.stats().shared_blocks, units::Blocks(10));

    scheduler.run();
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

TEST(Scheduler, FunctionalPromptsShareOnlyTheirWholeCommonBlocks)
{
    // A prompt that diverges inside a block shares the whole blocks
    // before it and computes the rest.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 811);
    const Engine engine(sim::make_mugi(64), transformer);
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.prefill_chunk_tokens = units::Tokens(64);
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);

    Request donor;
    donor.prompt = model::synthetic_tokens(14, config.vocab, 950);
    donor.max_new_tokens = units::Tokens(4);
    Request sharer = donor;
    sharer.prompt[10] = (sharer.prompt[10] + 1) %
                        static_cast<int>(config.vocab);
    // Arrives once the donor's prefill made its prompt resident.
    sharer.arrival_time_s = 1e-12;
    scheduler.submit(std::move(donor));
    scheduler.submit(std::move(sharer));
    scheduler.run();

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.prefix_hits, 1u);
    EXPECT_EQ(stats.shared_blocks, units::Blocks(2));
    EXPECT_EQ(stats.saved_prefill_tokens, units::Tokens(8));
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

// ---- Stats bugfix sweep (regressions). ----

TEST(Scheduler, MeanTpotExcludesSingleTokenRequests)
{
    // tpot_s() is structurally 0 for generated <= 1; such requests
    // used to dilute mean_tpot_s toward zero.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request single;
    single.analytic_prompt_tokens = units::Tokens(16);
    single.max_new_tokens = units::Tokens(1);
    const std::uint64_t single_id = scheduler.submit(single);
    Request multi = single;
    multi.max_new_tokens = units::Tokens(6);
    scheduler.submit(multi);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& m =
        finished[0].id == single_id ? finished[1] : finished[0];
    ASSERT_GT(m.generated, units::Tokens(1));
    EXPECT_GT(m.tpot_s(), 0.0);
    const ServerStats stats = scheduler.stats();
    // The mean is exactly the multi-token request's TPOT: the
    // single-token request contributes neither sum nor divisor.
    EXPECT_DOUBLE_EQ(stats.mean_tpot_s, m.tpot_s());
}

TEST(Scheduler, ZeroGenerationRequestsAreExcludedFromTtft)
{
    // A max_new_tokens == 0 request emits no token; it used to stamp
    // a fake first-token time at prefill completion and pollute the
    // TTFT aggregates.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request normal;
    normal.analytic_prompt_tokens = units::Tokens(32);
    normal.max_new_tokens = units::Tokens(4);
    const std::uint64_t normal_id = scheduler.submit(normal);
    Request empty = normal;
    empty.max_new_tokens = units::Tokens(0);
    scheduler.submit(empty);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& n =
        finished[0].id == normal_id ? finished[0] : finished[1];
    const FinishedRequest& z =
        finished[0].id == normal_id ? finished[1] : finished[0];
    EXPECT_EQ(z.generated, units::Tokens(0));
    EXPECT_EQ(z.first_token_s, 0.0) << "no token, no milestone";
    EXPECT_EQ(z.ttft_s(), 0.0);
    EXPECT_GT(z.finished_s, 0.0) << "its prefill was real work";

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);  // Still counts as finished...
    EXPECT_DOUBLE_EQ(stats.mean_ttft_s, n.ttft_s());  // ...not TTFT.
    EXPECT_DOUBLE_EQ(stats.max_ttft_s, n.ttft_s());
}

TEST(Scheduler, WatermarkSizedToTheLargestResidentPrecision)
{
    // An INT4 admission beside a float resident must leave a
    // float-sized watermark free: the headroom exists to absorb the
    // *residents'* decode growth, and the largest resident grows in
    // float-sized blocks.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const units::Bytes group_f = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kFloat,
        units::Tokens(16)).paged_bytes;
    const units::Bytes group_i = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(16)).paged_bytes;
    ASSERT_GT(group_f, group_i);

    // Both requests reserve 2 groups (17 positions).  The budget
    // fits float-A + int4-B + an int4 watermark but NOT a float
    // watermark, so the fixed admission must hold B back while A is
    // resident.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(16);
    sched_config.kv_budget_bytes = units::Bytes(2 * group_f + 3 * group_i);
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    Request a;
    a.analytic_prompt_tokens = units::Tokens(16);
    a.max_new_tokens = units::Tokens(4);
    a.kv_precision = quant::KvPrecision::kFloat;
    scheduler.submit(std::move(a));
    Request b;
    b.analytic_prompt_tokens = units::Tokens(16);
    b.max_new_tokens = units::Tokens(4);
    b.kv_precision = quant::KvPrecision::kInt4;
    scheduler.submit(std::move(b));

    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
    }
    EXPECT_EQ(max_active, 1u)
        << "B admitted beside A would eat A's float-sized headroom";
    EXPECT_EQ(scheduler.stats().finished, 2u);
}

TEST(Scheduler, EmptyPromptRetiresImmediatelyWithoutAsserts)
{
    // The assert-guarded branch in submit(): with asserts compiled
    // out (Release CI job), an empty functional prompt must retire
    // immediately instead of feeding token -1 into the model.
    if (support::kAssertsEnabled) {
        GTEST_SKIP() << "assert-guarded path; exercised by the "
                        "Release CI job";
    }
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 810);
    const Engine engine(sim::make_mugi(64), transformer);
    Scheduler scheduler(engine, {});

    Request empty;
    empty.max_new_tokens = units::Tokens(4);  // No prompt tokens at all.
    const std::uint64_t empty_id = scheduler.submit(std::move(empty));
    Request normal;
    normal.prompt = model::synthetic_tokens(5, config.vocab, 42);
    normal.max_new_tokens = units::Tokens(2);
    scheduler.submit(std::move(normal));

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& e =
        finished[0].id == empty_id ? finished[0] : finished[1];
    EXPECT_EQ(e.generated, units::Tokens(0));
    EXPECT_TRUE(e.tokens.empty());
    EXPECT_EQ(e.ttft_s(), 0.0);
    const FinishedRequest& n =
        finished[0].id == empty_id ? finished[1] : finished[0];
    EXPECT_EQ(n.generated, units::Tokens(2));
}

// ---- Arrivals, clock and stats. ----

TEST(Scheduler, StaggeredArrivalsRespectTheModeledClock)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request early;
    early.analytic_prompt_tokens = units::Tokens(64);
    early.max_new_tokens = units::Tokens(8);
    scheduler.submit(early);

    Request late = early;
    late.arrival_time_s = 1.0e-3;  // Far beyond the first steps.
    scheduler.submit(late);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& second =
        finished[0].id == 2 ? finished[0] : finished[1];
    EXPECT_GE(second.admitted_s, 1.0e-3);
    EXPECT_GE(second.arrival_s, 1.0e-3);
    EXPECT_GE(second.ttft_s(), 0.0);

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_GT(stats.mean_ttft_s, 0.0);
    EXPECT_GE(stats.max_ttft_s, stats.mean_ttft_s);
    EXPECT_GT(stats.mean_tpot_s, 0.0);
    // Every latency figure comes from the per-request samples, summed
    // in finishing order: the exact bits of adding up the finished
    // requests in the order run() returns them.
    double sum_ttft = 0.0;
    double sum_tpot = 0.0;
    double max_ttft = 0.0;
    for (const FinishedRequest& f : finished) {
        sum_ttft += f.ttft_s();
        sum_tpot += f.tpot_s();
        max_ttft = std::max(max_ttft, f.ttft_s());
    }
    EXPECT_EQ(stats.mean_ttft_s, sum_ttft / 2.0);
    EXPECT_EQ(stats.mean_tpot_s, sum_tpot / 2.0);
    EXPECT_EQ(stats.max_ttft_s, max_ttft);
    EXPECT_GT(stats.horizon.tokens, 0.0);
    EXPECT_FALSE(std::isnan(stats.horizon.energy_per_token_j));
    EXPECT_GT(stats.horizon.energy_per_token_j, 0.0);
    // The horizon processed every prompt and generated token.
    EXPECT_DOUBLE_EQ(stats.horizon.tokens,
                     static_cast<double>((stats.prefill_tokens +
                                          stats.decode_tokens)
                                             .value()));
}

TEST(Scheduler, ThreadsFlagTakesAutoOrACountUpToTheAutoClamp)
{
    // Parsing only: no pool is ever started from a parsed value.
    EXPECT_EQ(threads_flag("auto"), SchedulerConfig::kAutoThreads);
    EXPECT_EQ(threads_flag("0"), 0u);
    EXPECT_EQ(threads_flag("4"), 4u);
    EXPECT_EQ(threads_flag("16"), SchedulerConfig::kMaxAutoThreads);
    for (const char* bad : {"17", "-1", "4x", "abc", ""}) {
        EXPECT_FALSE(threads_flag(bad).has_value())
            << "\"" << bad << "\"";
    }
}

// ---- BatchPolicy: the Fig. 14 knee. ----

TEST(BatchPolicy, DerivesTheThroughputKnee)
{
    const BatchPolicy policy = BatchPolicy::derive(
        sim::make_mugi(256), model::llama2_7b(), 512, 32);
    ASSERT_FALSE(policy.sweep().empty());
    EXPECT_GE(policy.target_batch(), 1u);
    EXPECT_LE(policy.target_batch(), policy.max_batch());

    double best = 0.0;
    for (const BatchSweepPoint& point : policy.sweep()) {
        best = std::max(best, point.throughput_tokens_per_s);
    }
    // The target is the smallest batch within 10% of the best.
    for (const BatchSweepPoint& point : policy.sweep()) {
        if (point.batch == policy.target_batch()) {
            EXPECT_GE(point.throughput_tokens_per_s, 0.9 * best);
        } else if (point.batch < policy.target_batch()) {
            EXPECT_LT(point.throughput_tokens_per_s, 0.9 * best);
        }
    }
    // Mugi maps the batch across its 8 columns (Sec. 4.2): the knee
    // cannot sit past the first power of two to fill them.
    EXPECT_LE(policy.target_batch(), 8u);
}

TEST(BatchPolicy, EvaluateMatchesDirectWorkloadRun)
{
    const sim::DesignConfig design = sim::make_mugi(64);
    const model::ModelConfig models[] = {model::llama2_7b()};
    const BatchSweepPoint point =
        BatchPolicy::evaluate(design, models, 4, 256);
    const sim::PerfReport direct = sim::run_workload(
        design, model::build_decode_workload(models[0], 4, 256));
    EXPECT_NEAR(point.throughput_tokens_per_s,
                direct.throughput_tokens_per_s,
                1e-9 * direct.throughput_tokens_per_s);
    EXPECT_NEAR(point.energy_per_token_j, direct.energy_per_token_j,
                1e-9 * direct.energy_per_token_j);
}

}  // namespace
}  // namespace serve
}  // namespace mugi
