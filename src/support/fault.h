#ifndef MUGI_SUPPORT_FAULT_H_
#define MUGI_SUPPORT_FAULT_H_

/**
 * @file
 * Deterministic fault injection for the serving stack's unhappy paths.
 *
 * Production code marks failure-capable seams with named *fault
 * sites*:
 *
 *     if (MUGI_FAULT_POINT("block_pool.allocate")) {
 *         break;  // Defer admission, as an exhausted pool would.
 *     }
 *
 * With the build option MUGI_FAULT_INJECTION=OFF the macro expands to
 * a constant `false` and the compiler deletes the branch -- zero cost
 * and zero behavioural surface in production builds.  With injection
 * compiled in (the default for this repo's CI), every site is still
 * inert until a test or bench *arms* the process-wide FaultInjector
 * with a FaultPlan: a seed plus per-site firing rates and caps.
 *
 * Determinism contract: whether the Nth evaluation of a given site
 * fires is a pure function of (plan seed, site name, N), and each
 * site is evaluated at exactly one seam (tools/lint.py enforces it),
 * so N counts one kind of failure.  Two runs that evaluate a site
 * the same number of times see the same firing pattern, regardless
 * of what other sites or threads do -- each site keeps its own
 * evaluation counter and derives its decisions by hashing (seed,
 * fnv1a(site), counter) through splitmix64.  What is NOT
 * reproducible across runs is which *connection or request* happens
 * to hit the Nth evaluation when threads race; chaos gates therefore
 * assert invariants (no leaks, bit-identical survivors), never
 * specific victims.
 *
 * Thread-safety: internally synchronized.  should_fire() and the
 * counter accessors may be called from any thread; the armed flag is
 * a relaxed atomic read on the (disarmed) fast path and all per-site
 * state is guarded by a Mutex once armed.  arm()/disarm() may race
 * should_fire() safely, but two concurrent arm() calls race on which
 * plan wins (tests serialize arming, as usual for configuration).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace mugi {
namespace support {

/** One site's schedule within a FaultPlan. */
struct FaultSiteConfig {
    /** Site name, matching the MUGI_FAULT_POINT literal exactly. */
    std::string site;
    /** Probability in [0, 1] that any one evaluation fires. */
    double rate = 0.0;
    /** Stop firing after this many fires (0 = unlimited). */
    std::size_t max_fires = 0;
};

/** A seeded, deterministic schedule over a set of fault sites. */
struct FaultPlan {
    std::uint64_t seed = 0;
    std::vector<FaultSiteConfig> sites;
};

/**
 * Process-wide fault-site registry (see file comment for the
 * determinism and thread-safety contracts).
 */
class FaultInjector {
  public:
    /** The process-wide instance MUGI_FAULT_POINT consults. */
    static FaultInjector& instance();

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /** Install @p plan and reset all counters.  Overwrites any
     *  previous plan. */
    void arm(const FaultPlan& plan);

    /** Remove the plan: every site goes inert, counters reset. */
    void disarm();

    /** True while a plan is installed (even one with no sites). */
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * Evaluate @p site against the armed plan.  Returns true iff the
     * site should fail now.  Disarmed, or for a site the plan does
     * not name: always false, and nothing is counted.
     */
    bool should_fire(const char* site);

    /** Total fires across all sites since arm(). */
    std::size_t fires() const;

    /** Fires charged to one site since arm() (0 if never fired). */
    std::size_t fires(const std::string& site) const;

    /** Evaluations of armed sites since arm() (fired or not). */
    std::size_t evaluations() const;

  private:
    FaultInjector() = default;

    struct SiteState {
        double rate = 0.0;
        std::size_t max_fires = 0;
        std::uint64_t site_hash = 0;
        std::size_t evaluations = 0;
        std::size_t fired = 0;
    };

    std::atomic<bool> armed_{false};
    mutable Mutex mu_;
    std::uint64_t seed_ MUGI_GUARDED_BY(mu_) = 0;
    std::map<std::string, SiteState> sites_ MUGI_GUARDED_BY(mu_);
};

/**
 * RAII plan installer for tests and benches: arms on construction,
 * disarms on destruction so a failing test never leaks an armed plan
 * into later tests in the same binary.
 */
class ScopedFaultPlan {
  public:
    explicit ScopedFaultPlan(const FaultPlan& plan)
    {
        FaultInjector::instance().arm(plan);
    }
    ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }

    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace support
}  // namespace mugi

#if defined(MUGI_FAULT_INJECTION_ENABLED) && MUGI_FAULT_INJECTION_ENABLED
#define MUGI_FAULT_POINT(site) \
    (::mugi::support::FaultInjector::instance().should_fire(site))
#else
#define MUGI_FAULT_POINT(site) (false)
#endif

#endif  // MUGI_SUPPORT_FAULT_H_
