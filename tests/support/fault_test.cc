/**
 * @file
 * Contract of the deterministic fault injector: inert until armed,
 * seeded schedules reproduce exactly, and per-site rate/cap
 * accounting holds.  The wired production seams are exercised where
 * they live (tests/serve/overload_test.cc, tests/server/http_test.cc
 * and bench/chaos_serve).
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/fault.h"

namespace mugi {
namespace support {
namespace {

/** The firing pattern of @p site over @p n fresh evaluations. */
std::vector<bool>
pattern(const char* site, int n)
{
    std::vector<bool> fired;
    for (int i = 0; i < n; ++i) {
        fired.push_back(FaultInjector::instance().should_fire(site));
    }
    return fired;
}

TEST(FaultInjector, DisarmedIsInert)
{
    FaultInjector& injector = FaultInjector::instance();
    ASSERT_FALSE(injector.armed());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(injector.should_fire("block_pool.allocate"));
    }
    // Disarmed evaluations are not even counted.
    EXPECT_EQ(injector.evaluations(), 0u);
    EXPECT_EQ(injector.fires(), 0u);
}

TEST(FaultInjector, RateOneFiresEveryTimeUpToTheCap)
{
    FaultPlan plan;
    plan.seed = 17;
    plan.sites = {{"test.always", 1.0, 3}};
    ScopedFaultPlan armed(plan);

    const std::vector<bool> fired = pattern("test.always", 6);
    EXPECT_EQ(fired,
              (std::vector<bool>{true, true, true, false, false,
                                 false}));
    EXPECT_EQ(FaultInjector::instance().fires("test.always"), 3u);
    EXPECT_EQ(FaultInjector::instance().evaluations(), 6u);
}

TEST(FaultInjector, SameSeedReproducesTheExactSchedule)
{
    FaultPlan plan;
    plan.seed = 2024;
    plan.sites = {{"test.flaky", 0.3, 0}};

    FaultInjector::instance().arm(plan);
    const std::vector<bool> first = pattern("test.flaky", 100);
    // Re-arming resets the per-site counters: the schedule replays.
    FaultInjector::instance().arm(plan);
    const std::vector<bool> second = pattern("test.flaky", 100);
    FaultInjector::instance().disarm();

    EXPECT_EQ(first, second);
    // A 0.3 rate over 100 draws fires some but not all of the time.
    const std::size_t fires = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), true));
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 100u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultPlan a;
    a.seed = 1;
    a.sites = {{"test.flaky", 0.5, 0}};
    FaultPlan b = a;
    b.seed = 2;

    FaultInjector::instance().arm(a);
    const std::vector<bool> first = pattern("test.flaky", 64);
    FaultInjector::instance().arm(b);
    const std::vector<bool> second = pattern("test.flaky", 64);
    FaultInjector::instance().disarm();
    EXPECT_NE(first, second);
}

TEST(FaultInjector, SitesKeepIndependentCounters)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.sites = {{"test.a", 1.0, 2}, {"test.b", 1.0, 5}};
    ScopedFaultPlan armed(plan);

    FaultInjector& injector = FaultInjector::instance();
    for (int i = 0; i < 4; ++i) {
        injector.should_fire("test.a");
        injector.should_fire("test.b");
    }
    EXPECT_EQ(injector.fires("test.a"), 2u);  // Capped.
    EXPECT_EQ(injector.fires("test.b"), 4u);
    EXPECT_EQ(injector.fires(), 6u);
    EXPECT_EQ(injector.evaluations(), 8u);
    // A site the plan never named counts nothing.
    EXPECT_FALSE(injector.should_fire("test.unlisted"));
    EXPECT_EQ(injector.evaluations(), 8u);
}

TEST(FaultInjector, DisarmResetsEverything)
{
    {
        FaultPlan plan;
        plan.seed = 9;
        plan.sites = {{"test.once", 1.0, 1}};
        ScopedFaultPlan armed(plan);
        EXPECT_TRUE(
            FaultInjector::instance().should_fire("test.once"));
    }
    FaultInjector& injector = FaultInjector::instance();
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.fires(), 0u);
    EXPECT_EQ(injector.evaluations(), 0u);
    EXPECT_FALSE(injector.should_fire("test.once"));
}

}  // namespace
}  // namespace support
}  // namespace mugi
