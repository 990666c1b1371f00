/**
 * @file
 * Unit tests over support::ThreadPool's documented contract
 * (thread_pool.h): FIFO ordering observable through a one-worker
 * pool, split_ranges partitioning and the for_ranges stage split
 * that runs it, lowest-index exception propagation out of
 * parallel_for, drain-on-destruct losing no queued task, and the
 * cumulative busy/task counters.  Run under TSan in CI alongside the
 * serving stress tests.
 */

#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mugi {
namespace support {
namespace {

TEST(SplitRanges, CoversCountWithBalancedNonEmptyRanges)
{
    const struct {
        std::size_t count, parts;
    } cases[] = {{0, 4},  {1, 4},  {4, 4},   {5, 4},
                 {7, 3},  {8, 1},  {100, 7}, {3, 8}};
    for (const auto& c : cases) {
        const auto ranges = split_ranges(c.count, c.parts);
        // Never more parts than items, never an empty range.
        EXPECT_LE(ranges.size(), c.parts);
        std::size_t expect_begin = 0;
        std::size_t min_len = c.count, max_len = 0;
        for (const auto& [begin, end] : ranges) {
            EXPECT_EQ(begin, expect_begin);
            EXPECT_LT(begin, end);
            min_len = std::min(min_len, end - begin);
            max_len = std::max(max_len, end - begin);
            expect_begin = end;
        }
        EXPECT_EQ(expect_begin, c.count)
            << c.count << " over " << c.parts;
        if (!ranges.empty()) {
            EXPECT_LE(max_len - min_len, 1u);
        }
    }
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder)
{
    // One worker serializes the queue, so FIFO pop order becomes
    // observable execution order.
    std::vector<int> order;
    {
        ThreadPool pool(1);
        for (int i = 0; i < 64; ++i) {
            pool.run([&order, i] { order.push_back(i); });
        }
        // Destructor drains before joining.
    }
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 300;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    // parallel_for returned => every task completed (the barrier).
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "index " << i;
    }
}

TEST(ThreadPool, ForRangesRunsTheSplitRangesPartition)
{
    // Serial: one call over the whole count, none for an empty one.
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const auto record = [&calls](std::size_t first,
                                 std::size_t last) {
        calls.emplace_back(first, last);
    };
    for_ranges(nullptr, 10, record);
    for_ranges(nullptr, 0, record);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[0].second, 10u);

    // Pooled: exactly split_ranges' ranges, each item once.
    ThreadPool pool(3);
    for (const std::size_t count : {0u, 1u, 2u, 10u}) {
        const auto ranges = split_ranges(count, pool.num_threads());
        std::vector<std::atomic<int>> hits(count);
        std::vector<std::atomic<int>> range_hits(ranges.size());
        const auto body = [&](std::size_t first, std::size_t last) {
            const auto it = std::find(ranges.begin(), ranges.end(),
                                      std::make_pair(first, last));
            ASSERT_NE(it, ranges.end());
            range_hits[static_cast<std::size_t>(it - ranges.begin())]
                .fetch_add(1, std::memory_order_relaxed);
            for (std::size_t i = first; i < last; ++i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            }
        };
        for_ranges(&pool, count, body);
        for (const std::atomic<int>& h : hits) {
            EXPECT_EQ(h.load(std::memory_order_relaxed), 1) << count;
        }
        for (const std::atomic<int>& h : range_hits) {
            EXPECT_EQ(h.load(std::memory_order_relaxed), 1) << count;
        }
    }
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException)
{
    ThreadPool pool(4);
    // Indices 3, 11 and 40 throw; whatever the interleaving, the
    // caller must see index 3's message, and every non-throwing task
    // must still have run (the join happens before the rethrow).
    std::vector<std::atomic<int>> hits(64);
    try {
        pool.parallel_for(64, [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 3 || i == 11 || i == 40) {
                throw std::runtime_error("task " + std::to_string(i));
            }
        });
        FAIL() << "parallel_for swallowed the task exceptions";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "index " << i;
    }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    // Queue far more tasks than workers and destroy immediately: the
    // drain-on-destruct contract says every task still runs.
    auto counter = std::make_shared<std::atomic<int>>(0);
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) {
            pool.run([counter] {
                counter->fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    EXPECT_EQ(counter->load(std::memory_order_relaxed), 200);
}

TEST(ThreadPool, CountersAdvanceAcrossParallelFor)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.num_threads(), 2u);
    EXPECT_EQ(pool.tasks_completed(), 0u);
    // The counters tick *after* each task body returns -- which is
    // after the barrier inside the body released parallel_for -- so
    // reads here must wait for them to settle.
    const auto settled = [&pool](std::uint64_t n) {
        while (pool.tasks_completed() < n) {
            std::this_thread::yield();
        }
        return pool.tasks_completed();
    };
    pool.parallel_for(10, [](std::size_t) {});
    EXPECT_EQ(settled(10), 10u);
    const std::uint64_t busy_before = pool.busy_ns();
    pool.parallel_for(4, [](std::size_t) {
        // Do enough work for the steady clock to tick.
        volatile std::size_t sink = 0;
        for (std::size_t i = 0; i < 100000; ++i) sink = sink + i;
    });
    EXPECT_EQ(settled(14), 14u);
    EXPECT_GT(pool.busy_ns(), busy_before);
}

}  // namespace
}  // namespace support
}  // namespace mugi
