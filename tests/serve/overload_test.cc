/**
 * @file
 * Overload-protection contract: the bounded admission queue sheds
 * the newest arrival, admission timeouts bound the arrival ->
 * admission window on the modeled clock, and the threaded
 * serve::Server resolves every handle -- shed or served -- leaving
 * zero KV bytes and clean invariants.  Two fault sites are exercised
 * here: block_pool.allocate defers admission and never half-admits,
 * and an injected channel.push failure surfaces as
 * FinishReason::kShed on a handle that still resolves.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "support/fault.h"

namespace mugi {
namespace serve {
namespace {

/** Analytic request: @p prompt tokens, @p gen generated tokens. */
Request
analytic_request(std::size_t prompt, std::size_t gen)
{
    Request request;
    request.analytic_prompt_tokens = units::Tokens(prompt);
    request.max_new_tokens = units::Tokens(gen);
    return request;
}

/**
 * analytic_request() arriving an instant after t=0, so the blocker
 * (arrival 0) is admitted before the capacity sweep ever sees these
 * -- the shed/timeout candidates are exactly the late arrivals.
 */
Request
late_request(std::size_t prompt, std::size_t gen)
{
    Request request = analytic_request(prompt, gen);
    request.arrival_time_s = 1e-12;
    return request;
}

/** One-slot-batch scheduler: queued work stays queued while the
 *  blocker decodes, so shed/timeout sweeps see stable candidates. */
SchedulerConfig
one_slot_config()
{
    SchedulerConfig config;
    config.max_batch = 1;
    config.prefill_chunk_tokens = units::Tokens(256);
    return config;
}

TEST(SchedulerOverload, BoundedQueueShedsTheNewestArrival)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    SchedulerConfig config = one_slot_config();
    config.max_queued_requests = 2;
    Scheduler scheduler(engine, config);

    // A long blocker owns the single batch slot; three more arrive
    // behind it -- one over the bound, so exactly one must shed.
    scheduler.submit(analytic_request(256, 40));
    std::vector<std::uint64_t> queued_ids;
    for (int i = 0; i < 3; ++i) {
        queued_ids.push_back(
            scheduler.submit(late_request(128, 4)));
    }
    const std::vector<FinishedRequest> finished = scheduler.run();

    ASSERT_EQ(finished.size(), 4u);
    std::vector<std::uint64_t> shed_ids;
    for (const FinishedRequest& f : finished) {
        if (f.reason == FinishReason::kShed) {
            shed_ids.push_back(f.id);
            EXPECT_EQ(f.generated, units::Tokens(0));
        }
    }
    // The victim is the last submission, not an earlier arrival
    // that was already waiting.
    ASSERT_EQ(shed_ids.size(), 1u);
    EXPECT_EQ(shed_ids[0], queued_ids.back());
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.requests_shed, 1u);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(SchedulerOverload, AdmissionTimeoutRetiresStaleQueuers)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    SchedulerConfig config = one_slot_config();
    // The blocker's modeled decode takes far longer than this, so
    // the queued request exceeds its admission window mid-decode.
    config.admission_timeout_s = 1.0;
    Scheduler scheduler(engine, config);

    const std::uint64_t blocker_id =
        scheduler.submit(analytic_request(256, 40));
    const std::uint64_t waiter_id =
        scheduler.submit(late_request(128, 4));

    for (const FinishedRequest& f : scheduler.run()) {
        if (f.id == waiter_id) {
            EXPECT_EQ(f.reason, FinishReason::kAdmissionTimeout);
            EXPECT_EQ(f.generated, units::Tokens(0));
        } else {
            EXPECT_EQ(f.id, blocker_id);
            EXPECT_EQ(f.reason, FinishReason::kMaxTokens);
        }
    }
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.admission_timeouts, 1u);
    EXPECT_EQ(stats.requests_shed, 0u);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
}

TEST(SchedulerOverload, RequestTimeoutOverridesTheConfigDefault)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    SchedulerConfig config = one_slot_config();
    config.admission_timeout_s = 0.0;  // No default limit.
    Scheduler scheduler(engine, config);

    scheduler.submit(analytic_request(256, 40));  // Blocker.
    Request impatient = late_request(128, 4);
    impatient.admission_timeout_s = 1.0;
    const std::uint64_t impatient_id =
        scheduler.submit(std::move(impatient));
    const std::uint64_t patient_id =
        scheduler.submit(late_request(128, 4));

    for (const FinishedRequest& f : scheduler.run()) {
        if (f.id == impatient_id) {
            EXPECT_EQ(f.reason, FinishReason::kAdmissionTimeout);
        } else if (f.id == patient_id) {
            // No per-request limit and no config default: it waits
            // out the blocker and completes.
            EXPECT_EQ(f.reason, FinishReason::kMaxTokens);
        }
    }
    EXPECT_EQ(scheduler.stats().admission_timeouts, 1u);
}

TEST(SchedulerOverload, AllocationFaultDefersAdmissionUntilItStops)
{
    // block_pool.allocate's one seam is the head of admission: each
    // fire defers the iteration's admissions, as an exhausted pool
    // would, and the request is admitted whole once the site stops.
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Scheduler scheduler(engine, {});
    const std::uint64_t id = scheduler.submit(analytic_request(64, 4));
    {
        support::FaultPlan plan;
        plan.seed = 3;
        plan.sites = {{"block_pool.allocate", 1.0, 2}};
        support::ScopedFaultPlan armed(plan);

        for (int i = 0; i < 2; ++i) {
            ASSERT_TRUE(scheduler.step());
            const ServerStats stats = scheduler.stats();
            EXPECT_EQ(stats.queued, 1u) << "step " << i;
            EXPECT_EQ(stats.active, 0u) << "step " << i;
            EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0))
                << "step " << i;
            EXPECT_EQ(scheduler.check_invariants(), "");
        }
        // The cap is spent: the third step admits the request.
        ASSERT_TRUE(scheduler.step());
        const ServerStats stats = scheduler.stats();
        EXPECT_EQ(stats.queued, 0u);
        EXPECT_EQ(stats.active, 1u);
        EXPECT_GT(stats.kv_bytes_in_use, units::Bytes(0));
        EXPECT_EQ(support::FaultInjector::instance().fires(
                      "block_pool.allocate"),
                  2u);
    }

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].id, id);
    EXPECT_EQ(finished[0].reason, FinishReason::kMaxTokens);
    EXPECT_EQ(finished[0].generated, units::Tokens(4));
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(scheduler.check_invariants(), "");
}

TEST(ServerOverload, BoundedQueueResolvesEveryHandle)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    ServerConfig config;
    config.scheduler = one_slot_config();
    config.scheduler.max_queued_requests = 1;
    Server server(engine, config);

    std::vector<RequestHandle> handles;
    handles.push_back(server.submit(analytic_request(256, 40)));
    for (int i = 0; i < 4; ++i) {
        handles.push_back(server.submit(analytic_request(128, 4)));
    }

    std::size_t served = 0;
    std::size_t shed = 0;
    for (RequestHandle& handle : handles) {
        const FinishedRequest f = handle.wait();
        if (f.reason == FinishReason::kShed) {
            ++shed;
        } else {
            EXPECT_EQ(f.reason, FinishReason::kMaxTokens);
            ++served;
        }
    }
    server.shutdown(ShutdownMode::kDrain);

    EXPECT_EQ(served + shed, 5u);
    EXPECT_GE(shed, 1u);  // One queue slot cannot hold four waiters.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests_shed, shed);
    EXPECT_EQ(stats.kv_bytes_in_use, units::Bytes(0));
    // Post-shutdown the loop thread is joined: the deep audit runs.
    EXPECT_EQ(server.check_invariants(), "");
}

TEST(ServerOverload, ChannelPushFaultShedsTheSubmission)
{
    const model::ModelConfig model = model::llama2_70b();
    const Engine engine(sim::make_mugi(256), model);
    Server server(engine, ServerConfig{});

    {
        support::FaultPlan plan;
        plan.seed = 41;
        plan.sites = {{"channel.push", 1.0, 1}};
        support::ScopedFaultPlan armed(plan);

        RequestHandle handle =
            server.submit(analytic_request(64, 4));
        const FinishedRequest f = handle.wait();
        EXPECT_EQ(f.reason, FinishReason::kShed);
        EXPECT_EQ(f.generated, units::Tokens(0));
        const ServerStats stats = server.stats();
        EXPECT_GE(stats.requests_shed, 1u);
        EXPECT_GE(stats.faults_injected, 1u);
    }

    // Disarmed: the next submission serves normally.
    RequestHandle handle = server.submit(analytic_request(64, 4));
    EXPECT_EQ(handle.wait().reason, FinishReason::kMaxTokens);
    server.shutdown(ShutdownMode::kDrain);
    EXPECT_EQ(server.stats().kv_bytes_in_use, units::Bytes(0));
    EXPECT_EQ(server.check_invariants(), "");
}

}  // namespace
}  // namespace serve
}  // namespace mugi
