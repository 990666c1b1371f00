/**
 * @file
 * Multithreaded stress over quant::BlockPool -- the first code in
 * the repo to actually *race* the documented "all member functions
 * are internally locked" contract instead of quoting it.  Run under
 * TSan in CI (the gcc-tsan matrix entry): removing any lock_guard
 * from BlockPool makes these tests fail there.  Every test ends
 * with a from-scratch accounting check (BlockPool::check_invariants)
 * so a lost update surfaces even without a sanitizer.
 */

#include "quant/block_allocator.h"

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mugi {
namespace quant {
namespace {

/** Spawn @p n threads over @p body(thread index) and join them. */
void
run_threads(std::size_t n, const std::function<void(std::size_t)>& body)
{
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back(body, t);
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
}

TEST(BlockPoolStress, ConcurrentAllocateReleaseChurnBalances)
{
    BlockPool pool;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 400;
    // Two block byte-sizes so the per-size free lists see concurrent
    // traffic too (reuse races against fresh-slot creation).
    constexpr std::size_t kSizes[] = {64, 192};

    run_threads(kThreads, [&](std::size_t t) {
        std::vector<BlockId> held;
        for (std::size_t i = 0; i < kIters; ++i) {
            const std::size_t bytes = kSizes[(t + i) % 2];
            held.push_back(pool.allocate(units::Bytes(bytes)));
            // Deterministic churn (no std::rand -- tools/lint.py
            // bans it): release every other iteration's block early,
            // keep the rest until the end.
            if (i % 2 == 1) {
                pool.release(held.back());
                held.pop_back();
            }
            // Exercise the locked readers against the writers.
            (void)pool.bytes_in_use();
            (void)pool.blocks_in_use();
        }
        for (const BlockId id : held) {
            pool.release(id);
        }
    });

    // Everything released: the pool must balance back to zero, and a
    // from-scratch recount must agree with every counter.
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(0));
    EXPECT_EQ(pool.ref_total(), 0u);
    EXPECT_EQ(pool.check_invariants(), "");
}

TEST(BlockPoolStress, ConcurrentRetainReleaseKeepsRefcountExact)
{
    BlockPool pool;
    const BlockId block = pool.allocate(units::Bytes(128));
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 1000;

    run_threads(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < kIters; ++i) {
            pool.retain(block);
            (void)pool.ref_count(block);
            pool.release(block);
        }
    });

    // All transient sharers drained: exactly the allocation's own
    // reference remains and the block is no longer "shared".
    EXPECT_EQ(pool.ref_count(block), 1u);
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(0));
    EXPECT_EQ(pool.check_invariants(), "");
    pool.release(block);
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
}

}  // namespace
}  // namespace quant
}  // namespace mugi
