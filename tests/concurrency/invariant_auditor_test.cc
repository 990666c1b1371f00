/**
 * @file
 * The auditors must actually *fire*: a checker that never reports
 * anything is indistinguishable from one that checks nothing.  A
 * test-only hook (BlockPool::corrupt_refs_for_test) injects exactly
 * the refcount drift PRs 3-4 made safety-critical and asserts the
 * auditor reports it -- as a death through the abort-on-drift
 * audit() entry point in assert-enabled builds, and as an
 * error-return from check_invariants() in every build type (NDEBUG
 * included, where the scheduler's automatic audits are compiled
 * out).  Positive cases pin that honest schedulers and pools audit
 * clean end to end.
 */

#include <cstddef>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/config.h"
#include "quant/block_allocator.h"
#include "serve/engine.h"
#include "serve/scheduler.h"
#include "support/audit.h"

namespace mugi {
namespace {

TEST(InvariantAuditor, CleanPoolAuditsClean)
{
    quant::BlockPool pool;
    EXPECT_EQ(pool.check_invariants(), "");
    const quant::BlockId a = pool.allocate(units::Bytes(64));
    const quant::BlockId b = pool.allocate(units::Bytes(128));
    pool.retain(a);
    EXPECT_EQ(pool.check_invariants(), "");
    pool.release(a);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.check_invariants(), "");
    // Free-list reuse keeps the recount exact too.
    const quant::BlockId c = pool.allocate(units::Bytes(64));
    EXPECT_EQ(pool.check_invariants(), "");
    pool.release(c);
}

TEST(InvariantAuditor, CorruptedRefcountIsReported)
{
    quant::BlockPool pool;
    const quant::BlockId block = pool.allocate(units::Bytes(64));

    // Forge a second reference without the shared-block accounting:
    // exactly the drift a retain/release imbalance would leave.
    pool.corrupt_refs_for_test(block, 2);
    EXPECT_NE(pool.check_invariants(), "");

    // Zeroing the refcount of a live block is the double-release
    // signature; it must be reported as well.
    pool.corrupt_refs_for_test(block, 0);
    EXPECT_NE(pool.check_invariants(), "");

    // Repair and confirm the auditor goes quiet again.
    pool.corrupt_refs_for_test(block, 1);
    EXPECT_EQ(pool.check_invariants(), "");
    pool.release(block);
    EXPECT_EQ(pool.check_invariants(), "");
}

TEST(InvariantAuditorDeathTest, CorruptedPoolAuditAborts)
{
    // Debug builds: the abort-on-drift entry point (the one the
    // scheduler's automatic per-step audit uses) must die loudly.
    if (!support::kAssertsEnabled) {
        GTEST_SKIP() << "assert-enabled builds only";
    }
    quant::BlockPool pool;
    const quant::BlockId block = pool.allocate(units::Bytes(64));
    pool.corrupt_refs_for_test(block, 5);
    EXPECT_DEATH_IF_SUPPORTED(pool.audit("test"),
                              "invariant audit failed");
}

TEST(InvariantAuditor, AnalyticSchedulerStepsAuditClean)
{
    // Analytic serving with prefix sharing and a tight budget: every
    // step's automatic audit (MUGI_AUDIT_INVARIANTS builds) plus the
    // explicit end-state check below cover the all-layer caches'
    // block accounting, refcounted shared blocks, and retire-time
    // cleanup.
    const model::ModelConfig model =
        model::llama2_7b().scaled_for_eval(2, 64, 128);
    const serve::Engine engine(sim::make_mugi(64), model);
    serve::SchedulerConfig config;
    config.kv_budget_bytes = units::Bytes(1u << 20);
    config.max_batch = 4;
    serve::Scheduler scheduler(engine, config);

    for (std::size_t i = 0; i < 6; ++i) {
        serve::Request request;
        request.analytic_prompt_tokens = units::Tokens(40 + 8 * i);
        request.max_new_tokens = units::Tokens(6);
        request.prefix_group = 1;  // All share a system prompt.
        request.prefix_tokens = units::Tokens(32);
        scheduler.submit(std::move(request));
        EXPECT_EQ(scheduler.check_invariants(), "");
    }
    while (scheduler.step()) {
        EXPECT_EQ(scheduler.check_invariants(), "");
    }
    EXPECT_EQ(scheduler.check_invariants(), "");
    EXPECT_EQ(scheduler.pool().bytes_in_use(), units::Bytes(0));
}

TEST(InvariantAuditor, FunctionalSchedulerStepsAuditClean)
{
    const model::ModelConfig config =
        model::llama2_7b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 77);
    const serve::Engine engine(sim::make_mugi(64), transformer);
    serve::SchedulerConfig sched_config;
    sched_config.max_batch = 3;
    serve::Scheduler scheduler(engine, sched_config);

    for (std::size_t i = 0; i < 4; ++i) {
        serve::Request request;
        request.prompt = model::synthetic_tokens(
            24, config.vocab, static_cast<std::uint32_t>(7 + i));
        request.max_new_tokens = units::Tokens(4);
        scheduler.submit(std::move(request));
    }
    while (scheduler.step()) {
        EXPECT_EQ(scheduler.check_invariants(), "");
    }
    EXPECT_EQ(scheduler.check_invariants(), "");
    // All sessions retired: no block-table references remain.
    EXPECT_EQ(scheduler.pool().blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(scheduler.pool().ref_total(), 0u);
}

}  // namespace
}  // namespace mugi
