/**
 * @file
 * Acceptance contract of the push-based serving core
 * (serve::Server): handles stream every token and always resolve;
 * concurrent submitters race the loop thread safely (this file runs
 * under the TSan CI matrix entry); token streams are bit-identical
 * to an in-process Scheduler run; and both shutdown modes leave zero
 * KV bytes behind.
 */

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/transformer.h"
#include "serve/server.h"

namespace mugi {
namespace serve {
namespace {

/** Eval-scale functional engine shared by the functional tests. */
struct FunctionalRig {
    model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    std::shared_ptr<model::TransformerModel> transformer =
        std::make_shared<model::TransformerModel>(config, 654);
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

TEST(Server, StreamsEveryTokenThenResolvesTheHandle)
{
    FunctionalRig rig;
    Server server(rig.engine);

    RequestHandle handle = server.submit(rig.request(6, 5, 10));
    std::vector<int> streamed;
    std::size_t expected_index = 0;
    while (std::optional<TokenDelta> delta = handle.next()) {
        EXPECT_EQ(delta->id, handle.id());
        EXPECT_EQ(delta->index, expected_index++);
        streamed.push_back(delta->token);
    }
    const FinishedRequest finished = handle.wait();
    EXPECT_EQ(finished.reason, FinishReason::kMaxTokens);
    EXPECT_EQ(finished.tokens, streamed);
    EXPECT_EQ(streamed.size(), 5u);
    // wait() after resolution is idempotent.
    EXPECT_EQ(handle.wait().id, finished.id);
    ASSERT_TRUE(handle.poll().has_value());

    server.shutdown();
    EXPECT_EQ(server.stats().kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, TokensBitIdenticalToInProcessScheduler)
{
    FunctionalRig rig;

    // Reference: the same trace through a plain Scheduler.
    std::vector<Request> trace;
    for (std::uint32_t i = 0; i < 4; ++i) {
        trace.push_back(rig.request(5 + 3 * i, 6 + i, 100 + i));
    }
    std::vector<std::vector<int>> expected;
    {
        Scheduler scheduler(rig.engine, {});
        std::vector<std::uint64_t> ids;
        for (const Request& r : trace) {
            ids.push_back(scheduler.submit(r));
        }
        expected.resize(trace.size());
        for (const FinishedRequest& f : scheduler.run()) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                if (ids[i] == f.id) {
                    expected[i] = f.tokens;
                }
            }
        }
    }

    Server server(rig.engine);
    std::vector<RequestHandle> handles;
    for (const Request& r : trace) {
        handles.push_back(server.submit(r));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        // Threading changed where requests come from, never what
        // the engine computes.
        EXPECT_EQ(handles[i].wait().tokens, expected[i]);
    }
    server.shutdown();
    EXPECT_EQ(server.stats().kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, ConcurrentSubmittersAllResolve)
{
    // Analytic engine: cheap requests, many racing submitters.
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    ServerConfig config;
    config.scheduler.prefill_chunk_tokens = units::Tokens(256);
    Server server(engine, config);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::atomic<int> finished{0};
    {
        std::vector<std::thread> submitters;
        for (int t = 0; t < kThreads; ++t) {
            submitters.emplace_back([&server, &finished, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    Request r;
                    r.analytic_prompt_tokens =
                        units::Tokens(64 + 32 * ((t + i) % 4));
                    r.max_new_tokens = units::Tokens(4);
                    RequestHandle handle =
                        server.submit(std::move(r));
                    const FinishedRequest f = handle.wait();
                    if (f.reason == FinishReason::kMaxTokens &&
                        f.generated == units::Tokens(4)) {
                        finished.fetch_add(1);
                    }
                }
            });
        }
        for (std::thread& t : submitters) {
            t.join();
        }
    }
    EXPECT_EQ(finished.load(), kThreads * kPerThread);

    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.finished,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, CancelMidStreamKeepsThePrefixAndFreesBlocks)
{
    FunctionalRig rig;

    std::vector<int> full;
    {
        Scheduler scheduler(rig.engine, {});
        scheduler.submit(rig.request(8, 64, 20));
        full = scheduler.run()[0].tokens;
    }

    Server server(rig.engine);
    // The loop thread can emit all 20 tokens before a descheduled
    // test thread's cancel lands, and then the request just finishes.
    // Only a cancel that wins that race is under test: retry until
    // one does.
    for (int lost_races = 0;; ++lost_races) {
        ASSERT_LT(lost_races, 20) << "no cancel landed mid-stream";
        RequestHandle handle = server.submit(rig.request(8, 64, 20));
        std::vector<int> streamed;
        for (int i = 0; i < 3; ++i) {
            std::optional<TokenDelta> delta = handle.next();
            ASSERT_TRUE(delta.has_value());
            streamed.push_back(delta->token);
        }
        const bool cancel_sent = handle.cancel();
        // Drain whatever was emitted before the cancel took effect.
        while (std::optional<TokenDelta> delta = handle.next()) {
            streamed.push_back(delta->token);
        }
        const FinishedRequest finished = handle.wait();
        ASSERT_GE(streamed.size(), 3u);
        ASSERT_LE(streamed.size(), full.size());
        for (std::size_t i = 0; i < streamed.size(); ++i) {
            EXPECT_EQ(streamed[i], full[i]) << "token " << i;
        }
        // Cancelling an already-retired request reports false.
        EXPECT_FALSE(server.cancel(handle.id()));
        if (finished.reason == FinishReason::kCancelled) {
            EXPECT_TRUE(cancel_sent);
            break;
        }
        EXPECT_EQ(finished.reason, FinishReason::kMaxTokens);
        EXPECT_EQ(streamed, full);
    }

    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, DrainShutdownCompletesQueuedWork)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Server server(engine);

    std::vector<RequestHandle> handles;
    for (int i = 0; i < 5; ++i) {
        Request r;
        r.analytic_prompt_tokens = units::Tokens(128);
        r.max_new_tokens = units::Tokens(4);
        handles.push_back(server.submit(std::move(r)));
    }
    // Drain: submissions already accepted run to natural completion.
    server.shutdown(ShutdownMode::kDrain);
    EXPECT_FALSE(server.accepting());
    for (RequestHandle& handle : handles) {
        EXPECT_EQ(handle.wait().reason, FinishReason::kMaxTokens);
    }

    // A post-shutdown submit never runs: it resolves immediately.
    RequestHandle late = server.submit(Request{});
    const FinishedRequest refused = late.wait();
    EXPECT_EQ(refused.reason, FinishReason::kShutdown);
    EXPECT_EQ(refused.generated, units::Tokens(0));
    EXPECT_FALSE(late.next().has_value());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.finished, 5u);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, AbortShutdownResolvesEveryHandleWithZeroBytesHeld)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Server server(engine);

    std::vector<RequestHandle> handles;
    for (int i = 0; i < 6; ++i) {
        Request r;
        r.analytic_prompt_tokens = units::Tokens(2048);
        r.max_new_tokens = units::Tokens(64);
        handles.push_back(server.submit(std::move(r)));
    }
    server.shutdown(ShutdownMode::kAbort);

    // No handle is left hanging: each resolves as either shutdown
    // (retired early) or a natural finish that beat the abort.
    for (RequestHandle& handle : handles) {
        const FinishedRequest f = handle.wait();
        EXPECT_TRUE(f.reason == FinishReason::kShutdown ||
                    f.reason == FinishReason::kMaxTokens);
        while (handle.try_next()) {
        }
    }
    EXPECT_EQ(server.stats().kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, DeadlinePropagatesThroughTheLoopThread)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Server server(engine);

    Request r;
    r.analytic_prompt_tokens = units::Tokens(1024);
    r.max_new_tokens = units::Tokens(64);
    r.deadline_s = 1e-9;  // Expires before prefill can finish.
    RequestHandle handle = server.submit(std::move(r));
    const FinishedRequest finished = handle.wait();
    EXPECT_EQ(finished.reason, FinishReason::kDeadline);

    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
}

TEST(Server, DestructorDrainsWithoutExplicitShutdown)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    std::optional<FinishedRequest> finished;
    {
        Server server(engine);
        Request r;
        r.analytic_prompt_tokens = units::Tokens(64);
        r.max_new_tokens = units::Tokens(2);
        RequestHandle handle = server.submit(std::move(r));
        finished = handle.wait();
    }  // ~Server joins the loop thread.
    ASSERT_TRUE(finished.has_value());
    EXPECT_EQ(finished->reason, FinishReason::kMaxTokens);
}

}  // namespace
}  // namespace serve
}  // namespace mugi
