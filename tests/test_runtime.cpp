// Real-thread runtime: mutual exclusion under hardware concurrency, stop
// conditions, algorithm coverage.
#include <gtest/gtest.h>

#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/runtime/atomic_fork.hpp"
#include "gdp/runtime/runtime.hpp"
#include "gdp/runtime/shared_books.hpp"

namespace gdp::runtime {
namespace {

TEST(AtomicFork, TestAndSetSemantics) {
  AtomicFork fork;
  EXPECT_TRUE(fork.is_free());
  EXPECT_TRUE(fork.try_take(3));
  EXPECT_FALSE(fork.try_take(4));
  EXPECT_EQ(fork.holder(), 3);
  fork.release(3);
  EXPECT_TRUE(fork.try_take(4));
  fork.release(4);
}

TEST(AtomicFork, NrReadableByAnyoneWritableByHolder) {
  AtomicFork fork;
  EXPECT_EQ(fork.nr(), 0);
  ASSERT_TRUE(fork.try_take(1));
  fork.set_nr(1, 42);
  EXPECT_EQ(fork.nr(), 42);
  fork.release(1);
  EXPECT_EQ(fork.nr(), 42);  // nr persists across holders
}

TEST(ForkBooks, CondFollowsGuestBook) {
  ForkBooks books(3);
  books.insert_request(0);
  books.insert_request(1);
  EXPECT_TRUE(books.cond_holds(0));
  EXPECT_TRUE(books.cond_holds(1));
  books.mark_used(0);
  EXPECT_FALSE(books.cond_holds(0));  // 1 requests and used less recently
  EXPECT_TRUE(books.cond_holds(1));
  books.mark_used(1);
  EXPECT_TRUE(books.cond_holds(0));
  EXPECT_FALSE(books.cond_holds(1));
  // Once 0 deregisters, nothing blocks 1 (Cond only heeds *requesters*).
  books.remove_request(0);
  EXPECT_TRUE(books.cond_holds(1));
}

class RuntimeAlgorithms : public ::testing::TestWithParam<std::string> {};

// Every algorithm here is deadlock-free on fig1a's doubled triangle, so the
// meal target is reached long before the safety deadline.
class RuntimeFig1a : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeFig1a, MealsAndMutualExclusionOnFig1a) {
  RuntimeConfig cfg;
  cfg.algorithm = GetParam();
  cfg.target_meals = 2'000;
  cfg.duration = std::chrono::milliseconds(5'000);  // safety net
  const auto r = run_threads(graph::fig1a(), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_GE(r.total_meals, 2'000u);
  EXPECT_GT(r.meals_per_second, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, RuntimeFig1a,
                         ::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered"),
                         [](const auto& info) { return info.param; });

TEST(Runtime, TicketOnFig1aKeepsExclusionAndReturnsByItsDeadline) {
  // The ticket baseline can deadlock on fig1a: n-1 = 5 tickets do not stop
  // the 3-philosopher circular wait on the doubled triangle (see
  // algos/ticket.hpp and Ticket.DeadlocksOnTheGeneralizedTriangle). A run
  // may therefore stall with few meals; what must hold is mutual exclusion
  // and that the deadline still ends the run.
  RuntimeConfig cfg;
  cfg.algorithm = "ticket";
  cfg.target_meals = 2'000;
  cfg.duration = std::chrono::milliseconds(1'000);
  const auto r = run_threads(graph::fig1a(), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_LT(r.elapsed_seconds, 5.0);  // the 1 s deadline plus slack for the joins
}

TEST_P(RuntimeAlgorithms, RingRunsClean) {
  RuntimeConfig cfg;
  cfg.algorithm = GetParam();
  cfg.target_meals = 1'000;
  cfg.duration = std::chrono::milliseconds(5'000);
  const auto r = run_threads(graph::classic_ring(4), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_GE(r.total_meals, 1'000u);
}

INSTANTIATE_TEST_SUITE_P(All, RuntimeAlgorithms,
                         ::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered",
                                           "ticket"),
                         [](const auto& info) { return info.param; });

TEST(Runtime, CourteousVariantFeedsEveryone) {
  // Duration-based stop: every thread gets wall-clock time to run (a meal
  // target alone can be hit before late-starting threads join the table).
  RuntimeConfig cfg;
  cfg.algorithm = "gdp2c";
  cfg.duration = std::chrono::milliseconds(400);
  const auto r = run_threads(graph::classic_ring(6), cfg);
  EXPECT_TRUE(r.everyone_ate());
  EXPECT_EQ(r.exclusion_violations, 0u);
}

TEST(Runtime, DurationStopWorks) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.duration = std::chrono::milliseconds(100);
  const auto r = run_threads(graph::classic_ring(4), cfg);
  EXPECT_GT(r.total_meals, 0u);
  EXPECT_LT(r.elapsed_seconds, 3.0);
}

TEST(Runtime, LatencyPercentilesOrdered) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.target_meals = 2'000;
  cfg.duration = std::chrono::milliseconds(5'000);
  const auto r = run_threads(graph::fig1b(), cfg);
  EXPECT_LE(r.hunger_p50_ns, r.hunger_p99_ns);
  EXPECT_LE(r.hunger_p99_ns, r.hunger_max_ns);
}

TEST(Runtime, RejectsBadConfigs) {
  RuntimeConfig cfg;
  cfg.algorithm = "colored";  // simulation-only baseline
  cfg.target_meals = 10;
  EXPECT_THROW(run_threads(graph::classic_ring(4), cfg), PreconditionError);

  RuntimeConfig none;
  none.algorithm = "gdp1";
  EXPECT_THROW(run_threads(graph::classic_ring(4), none), PreconditionError);  // no stop

  RuntimeConfig bad_m;
  bad_m.algorithm = "gdp1";
  bad_m.target_meals = 10;
  bad_m.m = 2;  // < k
  EXPECT_THROW(run_threads(graph::classic_ring(4), bad_m), PreconditionError);
}

TEST(Runtime, ContentionWorkloadStillExclusive) {
  RuntimeConfig cfg;
  cfg.algorithm = "gdp1";
  cfg.target_meals = 1'000;
  cfg.duration = std::chrono::milliseconds(8'000);
  cfg.eat_work = 200;
  cfg.think_work = 50;
  const auto r = run_threads(graph::parallel_arcs(6), cfg);
  EXPECT_EQ(r.exclusion_violations, 0u);
  EXPECT_GE(r.total_meals, 1'000u);
}

}  // namespace
}  // namespace gdp::runtime
