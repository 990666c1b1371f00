/**
 * @file
 * Retirement-path contract of serve::Scheduler: cancel, deadline
 * expiry and shutdown release KV blocks *exactly* as a natural
 * finish does.  Every test ends on the same two assertions -- the
 * pool reports zero bytes in use and check_invariants() comes back
 * green -- because "no leaked blocks on the early-exit paths" is the
 * acceptance number the serving front-end rests on.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/scheduler.h"

namespace mugi {
namespace serve {
namespace {

/** Eval-scale functional engine shared by the functional tests. */
struct FunctionalRig {
    model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    std::shared_ptr<model::TransformerModel> transformer =
        std::make_shared<model::TransformerModel>(config, 321);
    Engine engine{sim::make_mugi(64), transformer};

    Request
    request(std::size_t prompt_len, std::size_t max_new,
            std::uint32_t seed) const
    {
        Request r;
        r.prompt =
            model::synthetic_tokens(prompt_len, config.vocab, seed);
        r.max_new_tokens = units::Tokens(max_new);
        return r;
    }
};

TEST(Cancellation, MidPrefillChunkReleasesEveryBlock)
{
    FunctionalRig rig;
    SchedulerConfig config;
    config.prefill_chunk_tokens = units::Tokens(4);
    Scheduler scheduler(rig.engine, config);

    // 18-token prompt, 4-token chunks: prefill needs 5 iterations.
    const std::uint64_t id =
        scheduler.submit(rig.request(18, 8, 41));
    ASSERT_TRUE(scheduler.step());
    ASSERT_TRUE(scheduler.step());

    // Mid-prefill: admitted, blocks held, not one token out yet.
    const ServerStats before = scheduler.stats();
    EXPECT_EQ(before.active, 1u);
    EXPECT_GT(before.kv_bytes_in_use, units::Bytes(0));
    EXPECT_EQ(before.generated_tokens, units::Tokens(0));

    EXPECT_TRUE(scheduler.cancel(id));
    EXPECT_FALSE(scheduler.cancel(id));  // Already retired.

    std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].reason, FinishReason::kCancelled);
    EXPECT_EQ(finished[0].generated, units::Tokens(0));
    EXPECT_EQ(scheduler.stats().cancelled, 1u);

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, MidDecodeKeepsAPrefixOfTheUncancelledStream)
{
    FunctionalRig rig;

    // Reference: the same request, never cancelled.
    std::vector<int> full;
    {
        Scheduler scheduler(rig.engine, {});
        Request r = rig.request(9, 12, 42);
        scheduler.submit(r);
        std::vector<FinishedRequest> finished = scheduler.run();
        ASSERT_EQ(finished.size(), 1u);
        full = finished[0].tokens;
        ASSERT_EQ(full.size(), 12u);
    }

    Scheduler scheduler(rig.engine, {});
    const std::uint64_t id = scheduler.submit(rig.request(9, 12, 42));
    // Step until a few tokens are out, then cut the request off.
    while (scheduler.stats().generated_tokens < units::Tokens(3)) {
        ASSERT_TRUE(scheduler.step());
    }
    EXPECT_TRUE(scheduler.cancel(id));

    std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].reason, FinishReason::kCancelled);
    const std::vector<int>& got = finished[0].tokens;
    ASSERT_GE(got.size(), 3u);
    ASSERT_LT(got.size(), 12u);
    // Cancellation changes when generation *stops*, never what was
    // generated: the emitted tokens are a bit-identical prefix.
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], full[i]) << "token " << i;
    }

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

/** One resident request at a time, serializing the rest into the
 *  queue. */
SchedulerConfig
one_resident_config()
{
    SchedulerConfig config;
    config.kv_block_tokens = units::Tokens(8);
    config.prefill_chunk_tokens = units::Tokens(24);
    config.max_batch = 1;
    return config;
}

Request
small_analytic_request()
{
    Request r;
    r.analytic_prompt_tokens = units::Tokens(24);
    r.max_new_tokens = units::Tokens(60);
    return r;
}

TEST(Cancellation, QueuedRequestRetiresWithoutEverBeingAdmitted)
{
    // Analytic serving with one resident request at a time:
    // the second stays queued and is cancelled from the queue.
    const model::ModelConfig model = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), model);
    Scheduler scheduler(engine, one_resident_config());

    scheduler.submit(small_analytic_request());
    const std::uint64_t queued_id =
        scheduler.submit(small_analytic_request());

    ASSERT_TRUE(scheduler.step());
    const ServerStats mid = scheduler.stats();
    ASSERT_EQ(mid.active, 1u);
    ASSERT_EQ(mid.queued, 1u);

    EXPECT_TRUE(scheduler.cancel(queued_id));
    std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].id, queued_id);
    EXPECT_EQ(finished[0].reason, FinishReason::kCancelled);
    EXPECT_EQ(finished[0].generated, units::Tokens(0));
    EXPECT_GE(finished[0].queue_s(), 0.0);

    // The survivor still runs to natural completion.
    std::vector<FinishedRequest> rest = scheduler.run();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].reason, FinishReason::kMaxTokens);

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, DeadlineExpiringDuringDecodeKeepsEmittedTokens)
{
    FunctionalRig rig;

    // Learn the request's natural milestones on the modeled clock.
    double first_token_s = 0.0, finished_s = 0.0;
    {
        Scheduler scheduler(rig.engine, {});
        scheduler.submit(rig.request(7, 10, 43));
        std::vector<FinishedRequest> finished = scheduler.run();
        ASSERT_EQ(finished.size(), 1u);
        first_token_s = finished[0].first_token_s;
        finished_s = finished[0].finished_s;
        ASSERT_LT(first_token_s, finished_s);
    }

    // Same request, deadline mid-decode: some tokens out, not all.
    Scheduler scheduler(rig.engine, {});
    Request r = rig.request(7, 10, 43);
    r.deadline_s = (first_token_s + finished_s) / 2.0;
    scheduler.submit(r);
    std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].reason, FinishReason::kDeadline);
    EXPECT_GT(finished[0].generated, units::Tokens(0));
    EXPECT_LT(finished[0].generated, units::Tokens(10));
    EXPECT_EQ(scheduler.stats().expired, 1u);

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, ExpiredQueuedRequestIsNeverAdmitted)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Scheduler scheduler(engine, {});

    // Arrives late with a deadline that passes while the first
    // request is still decoding: it must expire from the queue with
    // zero work done, not be admitted and then killed.
    Request first;
    first.analytic_prompt_tokens = units::Tokens(512);
    first.max_new_tokens = units::Tokens(64);
    scheduler.submit(first);

    Request doomed;
    doomed.analytic_prompt_tokens = units::Tokens(256);
    doomed.max_new_tokens = units::Tokens(8);
    doomed.arrival_time_s = 1e9;  // Arrives far in the future...
    doomed.deadline_s = 1e9;      // ...already at its deadline.
    const std::uint64_t doomed_id = scheduler.submit(doomed);

    std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    for (const FinishedRequest& f : finished) {
        if (f.id == doomed_id) {
            EXPECT_EQ(f.reason, FinishReason::kDeadline);
            EXPECT_EQ(f.generated, units::Tokens(0));
        } else {
            EXPECT_EQ(f.reason, FinishReason::kMaxTokens);
        }
    }

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, ShutdownWithInFlightAndQueuedReleasesEverything)
{
    const model::ModelConfig model = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), model);
    Scheduler scheduler(engine, one_resident_config());

    for (int i = 0; i < 3; ++i) {
        scheduler.submit(small_analytic_request());
    }
    ASSERT_TRUE(scheduler.step());
    ASSERT_TRUE(scheduler.step());
    const ServerStats mid = scheduler.stats();
    ASSERT_GE(mid.active, 1u);
    ASSERT_GE(mid.queued, 1u);
    ASSERT_GT(mid.kv_bytes_in_use, units::Bytes(0));

    // The non-draining shutdown path: everything retires *now*.
    EXPECT_EQ(scheduler.cancel_all(FinishReason::kShutdown), 3u);
    std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), 3u);
    for (const FinishedRequest& f : finished) {
        EXPECT_EQ(f.reason, FinishReason::kShutdown);
    }
    EXPECT_FALSE(scheduler.step());  // Nothing left to do.

    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, PreemptedRequestCancelledWhileRequeued)
{
    // A preempted request waits at the queue front for re-prefill.
    // Cancelled there, it retires with the tokens it emitted before
    // the eviction and its first admission stamp.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 556);
    const Engine engine(sim::make_mugi(64), transformer);
    Request low;
    low.prompt = model::synthetic_tokens(6, config.vocab, 81);
    low.max_new_tokens = units::Tokens(10);
    low.priority = -1;
    Request high = low;
    high.prompt = model::synthetic_tokens(6, config.vocab, 82);
    high.priority = 0;

    // Reference: the victim alone, uncontended.
    std::vector<int> full;
    {
        Scheduler scheduler(engine, {});
        scheduler.submit(low);
        std::vector<FinishedRequest> finished = scheduler.run();
        ASSERT_EQ(finished.size(), 1u);
        full = finished[0].tokens;
    }

    // The budget of Scheduler.PriorityChoosesThePreemptionVictim:
    // both prompts fit, both generations do not, and the
    // lower-priority request is the one evicted.
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);
    const std::uint64_t low_id = scheduler.submit(low);
    scheduler.submit(high);
    while (scheduler.preemptions() != 1 || scheduler.queued() != 1) {
        ASSERT_TRUE(scheduler.step());
    }
    EXPECT_TRUE(scheduler.cancel(low_id));

    std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), 1u);
    const FinishedRequest& f = finished[0];
    EXPECT_EQ(f.id, low_id);
    EXPECT_EQ(f.reason, FinishReason::kCancelled);
    EXPECT_EQ(f.preemptions, 1u);
    EXPECT_EQ(f.generated, units::Tokens(f.tokens.size()));
    ASSERT_GE(f.tokens.size(), 1u);
    ASSERT_LT(f.tokens.size(), full.size());
    EXPECT_TRUE(std::equal(f.tokens.begin(), f.tokens.end(),
                           full.begin()));
    // Admitted on arrival, before the eviction: no queue wait.
    EXPECT_EQ(f.queue_s(), 0.0);

    scheduler.run();
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(Cancellation, CancelReportsFalseForUnknownIds)
{
    const Engine engine(sim::make_mugi(256), model::llama2_70b());
    Scheduler scheduler(engine, {});
    EXPECT_FALSE(scheduler.cancel(7));
    EXPECT_EQ(scheduler.cancel_all(), 0u);
    EXPECT_EQ(scheduler.check_invariants(), "");
}

}  // namespace
}  // namespace serve
}  // namespace mugi
