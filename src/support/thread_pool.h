#ifndef MUGI_SUPPORT_THREAD_POOL_H_
#define MUGI_SUPPORT_THREAD_POOL_H_

/**
 * @file
 * Fixed-size worker pool with deterministic task ordering -- the
 * execution substrate of the parallel Engine::step hot path.
 *
 * Tasks enqueue FIFO and workers pop FIFO, so a one-worker pool
 * executes run() tasks in exactly the submission order (the property
 * the ordering unit tests pin).  parallel_for(count, fn) enqueues the
 * count index tasks in ascending order and blocks the caller until
 * all of them finished; if any task throws, the exception of the
 * *lowest-index* failing task is rethrown on the caller -- a
 * deterministic choice no matter how the workers interleaved.  The
 * caller is not a passive waiter: while its barrier is open it drains
 * queued tasks itself, so a parallel_for region runs on up to
 * num_threads() + 1 threads and the final handoff latency (worker
 * finishes, caller wakes) mostly disappears.  A count of one runs
 * inline on the caller -- no queue traffic at all.
 *
 * Determinism contract: the pool never decides *what* is computed,
 * only *when*.  Callers that need bit-identical results partition
 * their work into tasks that write disjoint outputs (e.g. disjoint
 * column panels or row ranges of a matrix) and join at a barrier
 * (parallel_for's return); then any interleaving produces the same
 * bytes as the serial loop.  for_ranges is that partition-and-join.
 *
 * Destruction drains: the destructor stops accepting new work, runs
 * every task still queued, then joins the workers -- so "shutdown
 * while queued" loses nothing (pinned by the unit tests).  Submitting
 * from a task while the destructor runs is not supported.
 *
 * Thread-safety: internally synchronized.  run() and parallel_for()
 * may be called from any number of threads concurrently (including
 * from inside tasks for run(); parallel_for from inside a task of the
 * same pool would deadlock a fully-busy pool and is disallowed).  The
 * queue is guarded by a capability-annotated support::Mutex; the
 * cumulative busy/task counters are relaxed atomics (monotonic
 * counters, no ordering needed).  The destructor must not race other
 * member calls (external serialization of lifetime, as usual).
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace mugi {
namespace support {

/**
 * At most @p parts contiguous [begin, end) ranges covering
 * [0, count), sized within one item of each other (never empty) --
 * the partition for_ranges runs.
 */
std::vector<std::pair<std::size_t, std::size_t>>
split_ranges(std::size_t count, std::size_t parts);

/** Fixed-size FIFO worker pool (see file comment for the contract). */
class ThreadPool {
  public:
    /** Spawn exactly @p threads workers (at least one). */
    explicit ThreadPool(std::size_t threads);

    /** Drain the remaining queue, then join every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t num_threads() const { return workers_.size(); }

    /** Enqueue one task (FIFO; runs on some worker, never inline). */
    void run(std::function<void()> task);

    /**
     * Run fn(0), fn(1), ..., fn(count - 1) and block until all
     * completed.  Tasks enqueue in ascending index order under one
     * lock; the caller then helps drain the queue until its barrier
     * closes (so parallelism is the workers plus the caller), and
     * count == 1 executes fn(0) inline without touching the queue or
     * the counters.  If any invocation threw, the lowest-index task's
     * exception is rethrown here after the join -- every task still
     * runs to completion first.
     */
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

    /**
     * Cumulative nanoseconds spent executing queued tasks since
     * construction, on workers and on parallel_for callers draining
     * their own barriers.  With wall-clock over a region, this yields
     * the region's busy fraction: (delta busy) / (threads * wall) --
     * approximate when concurrent callers share the pool, and worth
     * clamping since caller-executed tasks can push it past 1.
     */
    std::uint64_t
    busy_ns() const
    {
        return busy_ns_.load(std::memory_order_relaxed);
    }

    /** Cumulative queued tasks completed since construction. */
    std::uint64_t
    tasks_completed() const
    {
        return tasks_completed_.load(std::memory_order_relaxed);
    }

  private:
    void worker_loop();
    void execute_timed(const std::function<void()>& task);

    Mutex mu_;
    std::condition_variable_any cv_;
    std::deque<std::function<void()>> queue_ MUGI_GUARDED_BY(mu_);
    bool shutdown_ MUGI_GUARDED_BY(mu_) = false;

    std::atomic<std::uint64_t> busy_ns_{0};
    std::atomic<std::uint64_t> tasks_completed_{0};

    std::vector<std::thread> workers_;
};

/**
 * Run @p body over contiguous [begin, end) ranges covering
 * [0, count) and return once all of them finished: as one
 * body(0, count) call on the caller when @p pool is null, else as
 * split_ranges(count, pool->num_threads()) joined by one
 * parallel_for.  Every pooled stage partitions through this; bodies
 * that write disjoint outputs with the serial per-item float-op
 * sequence reproduce the serial bytes exactly.
 */
void for_ranges(
    ThreadPool* pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_THREAD_POOL_H_
