#ifndef MUGI_SUPPORT_MUTEX_H_
#define MUGI_SUPPORT_MUTEX_H_

/**
 * @file
 * Capability-annotated mutex wrappers.
 *
 * support::Mutex is std::mutex wearing Clang's `capability`
 * attribute, and support::MutexLock is the matching scoped_lockable
 * std::lock_guard.  The internally-synchronized classes
 * (quant::BlockPool, support::ThreadPool, serve::Server) lock through
 * these so `-Wthread-safety` can see their acquires: libstdc++'s
 * std::mutex is unannotated, and a lock the analysis cannot see makes
 * every MUGI_GUARDED_BY field access a false positive.  Zero
 * overhead: both types compile to exactly the std:: equivalents they
 * wrap.
 *
 * Thread-safety: Mutex is the synchronization primitive itself;
 * MutexLock is a stack-local guard and is never shared.
 */

#include <mutex>

#include "support/thread_annotations.h"

namespace mugi {
namespace support {

/** std::mutex as a Clang-visible lockable capability. */
class MUGI_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void
    lock() MUGI_ACQUIRE()
    {
        mu_.lock();
    }

    void
    unlock() MUGI_RELEASE()
    {
        mu_.unlock();
    }

    [[nodiscard]] bool
    try_lock() MUGI_TRY_ACQUIRE(true)
    {
        return mu_.try_lock();
    }

  private:
    std::mutex mu_;
};

/** std::lock_guard over a Mutex, visible to the analysis. */
class MUGI_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex& mu) MUGI_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() MUGI_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mu_;
};

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_MUTEX_H_
