// Per-step semantics of the paper's algorithms (Tables 1-4) and the
// cross-algorithm contract: probabilities sum to 1, invariants preserved,
// progress under fair scheduling.
#include <gtest/gtest.h>

#include <numeric>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/algos/gdp1.hpp"
#include "gdp/algos/lr1.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/sim/engine.hpp"
#include "gdp/sim/schedulers/basic.hpp"

namespace gdp::algos {
namespace {

using sim::Branch;
using sim::EventKind;
using sim::Phase;
using sim::SimState;

/// Drives p through `steps` scheduled atomic steps, always sampling the
/// branch chosen by `pick` (default: first).
SimState drive(const Algorithm& algo, const graph::Topology& t, SimState s, PhilId p, int steps,
               int pick = 0) {
  for (int i = 0; i < steps; ++i) {
    auto branches = algo.step(t, s, p);
    s = branches[static_cast<std::size_t>(std::min<int>(pick, static_cast<int>(branches.size()) - 1))]
            .next;
  }
  return s;
}

TEST(Lr1Semantics, DrawIsFairByDefault) {
  Lr1 lr1;
  const auto t = graph::classic_ring(3);
  SimState s = lr1.initial_state(t);
  s = drive(lr1, t, s, 0, 1);  // wake
  EXPECT_EQ(s.phil(0).phase, Phase::kChoose);
  const auto branches = lr1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_DOUBLE_EQ(branches[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(branches[1].prob, 0.5);
  EXPECT_EQ(branches[0].event.kind, EventKind::kChose);
}

TEST(Lr1Semantics, BiasedDrawDropsZeroBranch) {
  Lr1 lr1(AlgoConfig{.p_left = 1.0});
  const auto t = graph::classic_ring(3);
  SimState s = lr1.initial_state(t);
  s = drive(lr1, t, s, 0, 1);
  const auto branches = lr1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.side, Side::kLeft);
}

TEST(Lr1Semantics, BusyWaitOnTakenFirstFork) {
  Lr1 lr1(AlgoConfig{.p_left = 1.0});  // always pick left
  const auto t = graph::classic_ring(3);
  SimState s = lr1.initial_state(t);
  // P0 wakes, commits to left fork (f0) and takes it.
  s = drive(lr1, t, s, 0, 3);
  EXPECT_EQ(s.fork(0).holder, 0);
  EXPECT_EQ(s.phil(0).phase, Phase::kTrySecond);
  // P2's left fork is f2; wake P2, commit left, take f2.
  s = drive(lr1, t, s, 2, 3);
  EXPECT_EQ(s.fork(2).holder, 2);
  // P2 tries its second fork f0 — taken: release f2, back to choosing.
  auto branches = lr1.step(t, s, 2);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.kind, EventKind::kFailedSecond);
  s = branches[0].next;
  EXPECT_TRUE(s.fork(2).free());
  EXPECT_EQ(s.phil(2).phase, Phase::kChoose);
  // Re-commit left (f2, free): take it; P0 still holds f0; now make P1
  // hold f1 so P2->f0 busy-wait can be observed... simpler: P2 commits to
  // f2 again and P0 never released f0, so P2 cycles. Instead observe the
  // busy-wait on P1 whose left f1 is free but make it taken first:
  s = drive(lr1, t, s, 1, 2);  // P1 wakes, commits f1
  EXPECT_EQ(s.phil(1).phase, Phase::kCommit);
  SimState blocked = s;
  blocked.fork(1).holder = 0;  // f1 grabbed (P0 holds f0 and f1 = eats soon)
  blocked.phil(0).phase = Phase::kEating;
  auto wait = lr1.step(t, blocked, 1);
  ASSERT_EQ(wait.size(), 1u);
  EXPECT_EQ(wait[0].event.kind, EventKind::kBlockedFirst);
  EXPECT_TRUE(wait[0].next == blocked);  // pure self-loop
}

TEST(Lr1Semantics, EatingReleasesBothAndThinks) {
  Lr1 lr1(AlgoConfig{.p_left = 1.0});
  const auto t = graph::classic_ring(3);
  SimState s = lr1.initial_state(t);
  s = drive(lr1, t, s, 0, 4);  // wake, choose, take f0, take f1 -> eating
  EXPECT_EQ(s.phil(0).phase, Phase::kEating);
  EXPECT_EQ(s.fork(0).holder, 0);
  EXPECT_EQ(s.fork(1).holder, 0);
  s = drive(lr1, t, s, 0, 1);
  EXPECT_EQ(s.phil(0).phase, Phase::kThinking);
  EXPECT_TRUE(s.fork(0).free());
  EXPECT_TRUE(s.fork(1).free());
}

TEST(Gdp1Semantics, ChoosesHigherNrTiesRight) {
  Gdp1 gdp1;
  const auto t = graph::classic_ring(3);
  SimState s = gdp1.initial_state(t);
  // All nr equal (0): tie -> right (Table 3's else branch).
  EXPECT_EQ(Gdp1::choose_first(t, s, 0), Side::kRight);
  s.fork(0).nr = 3;  // P0's left
  EXPECT_EQ(Gdp1::choose_first(t, s, 0), Side::kLeft);
  s.fork(1).nr = 5;  // P0's right now higher
  EXPECT_EQ(Gdp1::choose_first(t, s, 0), Side::kRight);
}

TEST(Gdp1Semantics, RenumberBranchesUniformOverM) {
  Gdp1 gdp1(AlgoConfig{.m = 7});
  const auto t = graph::classic_ring(3);
  SimState s = gdp1.initial_state(t);
  s = drive(gdp1, t, s, 0, 3);  // wake, choose (tie->right f1), take f1
  EXPECT_EQ(s.phil(0).phase, Phase::kRenumber);
  const auto branches = gdp1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 7u);  // nr equal: m-way uniform renumber
  double total = 0.0;
  for (const Branch& b : branches) {
    EXPECT_DOUBLE_EQ(b.prob, 1.0 / 7);
    EXPECT_EQ(b.event.kind, EventKind::kRenumbered);
    EXPECT_EQ(b.next.fork(1).nr, b.event.value);
    total += b.prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Gdp1Semantics, NoRenumberWhenDistinct) {
  Gdp1 gdp1;
  const auto t = graph::classic_ring(3);
  SimState s = gdp1.initial_state(t);
  s.fork(1).nr = 2;  // P0 right higher -> first
  s = drive(gdp1, t, s, 0, 3);
  EXPECT_EQ(s.phil(0).phase, Phase::kRenumber);
  const auto branches = gdp1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].event.kind, EventKind::kNrDistinct);
}

TEST(Gdp1Semantics, RenumberMayCollideAgain) {
  // Table 3 has no retry: one of the m outcomes equals the other fork's nr.
  Gdp1 gdp1(AlgoConfig{.m = 4});
  const auto t = graph::classic_ring(4);
  SimState s = gdp1.initial_state(t);
  s.fork(0).nr = 2;
  s.fork(1).nr = 2;  // P0's forks tie at 2 -> first = right (f1)
  s = drive(gdp1, t, s, 0, 3);
  const auto branches = gdp1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 4u);
  bool collision_possible = false;
  for (const Branch& b : branches) collision_possible |= b.next.fork(1).nr == 2;
  EXPECT_TRUE(collision_possible);
}

TEST(Validation, GdpRejectsSmallM) {
  EXPECT_THROW(make_algorithm("gdp1", AlgoConfig{.m = 2})->initial_state(graph::classic_ring(4)),
               PreconditionError);
  EXPECT_NO_THROW(
      make_algorithm("gdp1", AlgoConfig{.m = 4})->initial_state(graph::classic_ring(4)));
}

TEST(Factory, KnowsAllNames) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_EQ(make_algorithm(name)->name(), name);
  }
  EXPECT_THROW(make_algorithm("nope"), PreconditionError);
}

TEST(Factory, SymmetryAndDistributionFlags) {
  EXPECT_TRUE(make_algorithm("lr1")->symmetric());
  EXPECT_TRUE(make_algorithm("gdp2")->symmetric());
  EXPECT_FALSE(make_algorithm("ordered")->symmetric());
  EXPECT_FALSE(make_algorithm("colored")->symmetric());
  EXPECT_TRUE(make_algorithm("ordered")->fully_distributed());
  EXPECT_FALSE(make_algorithm("arbiter")->fully_distributed());
  EXPECT_FALSE(make_algorithm("ticket")->fully_distributed());
}

TEST(ThinkModes, CoinModeBranches) {
  Lr1 lr1(AlgoConfig{.think = ThinkMode::kCoin, .think_coin = 0.25});
  const auto t = graph::classic_ring(3);
  const SimState s = lr1.initial_state(t);
  const auto branches = lr1.step(t, s, 0);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_DOUBLE_EQ(branches[0].prob, 0.25);
  EXPECT_EQ(branches[0].event.kind, EventKind::kStartTrying);
  EXPECT_DOUBLE_EQ(branches[1].prob, 0.75);
  EXPECT_EQ(branches[1].event.kind, EventKind::kStillThinking);
}

// step_into reuses the caller's buffer; step() is a wrapper over a fresh
// one. On reachable states of every factory algorithm, step_into into one
// deliberately dirty buffer — reused across algorithms and topologies of
// different shapes, so every slot holds stale states, events and
// probabilities — must equal step() branch for branch.
TEST(StepInto, MatchesStepOnADirtyReusedBuffer) {
  sim::BranchBuffer buffer;
  {
    // Pre-dirty: wide states with every field set, including ones no
    // algorithm writes on these topologies (scratch, aux, guest books).
    SimState junk;
    junk.forks.assign(9, sim::ForkState{3, 7, 0b101, {1, 2, 3}});
    junk.phils.assign(9, sim::PhilState{Phase::kEating, Side::kRight, 5});
    junk.aux.assign(4, 2);
    for (int i = 0; i < 12; ++i) {
      buffer.add(0.125, sim::StepEvent{EventKind::kRenumbered, Side::kRight, 4, 9}, junk);
    }
  }
  const graph::Topology topologies[] = {graph::classic_ring(4), graph::star(5),
                                        graph::parallel_arcs(3)};
  rng::Rng rng(2024);
  for (const std::string& name : algorithm_names()) {
    const auto algo = make_algorithm(name);
    for (const graph::Topology& t : topologies) {
      if (name == "colored" && t.name() != graph::classic_ring(4).name()) continue;
      SCOPED_TRACE(name + " on " + t.name());
      SimState s = algo->initial_state(t);
      for (int step = 0; step < 150; ++step) {
        for (PhilId p = 0; p < t.num_phils(); ++p) {
          const std::vector<Branch> expected = algo->step(t, s, p);
          algo->step_into(t, s, p, buffer);
          ASSERT_EQ(buffer.size(), expected.size()) << "phil " << p << " at step " << step;
          for (std::size_t i = 0; i < expected.size(); ++i) {
            const Branch& got = buffer[i];
            EXPECT_EQ(got.prob, expected[i].prob);
            EXPECT_EQ(got.event.kind, expected[i].event.kind);
            EXPECT_EQ(got.event.side, expected[i].event.side);
            EXPECT_EQ(got.event.fork, expected[i].event.fork);
            EXPECT_EQ(got.event.value, expected[i].event.value);
            ASSERT_TRUE(got.next == expected[i].next)
                << "phil " << p << " branch " << i << " at step " << step;
          }
        }
        const PhilId p = rng.uniform_int(0, t.num_phils() - 1);
        s = sim::sample_branch(algo->step(t, s, p), rng).next;
      }
    }
  }
}

// --- Cross-algorithm contract, parameterized over (algorithm, topology). ---

struct ContractCase {
  std::string algo;
  int topo;
};

graph::Topology contract_topology(int index) {
  switch (index) {
    case 0: return graph::classic_ring(4);
    case 1: return graph::classic_ring(6);
    case 2: return graph::fig1a();
    case 3: return graph::parallel_arcs(3);
    case 4: return graph::ring_with_pendant(3);
    case 5: return graph::theta(1, 2, 2);
    default: return graph::star(5);
  }
}

class AlgorithmContract : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AlgorithmContract, BranchProbabilitiesSumToOne) {
  const auto [name, topo_idx] = GetParam();
  const auto t = contract_topology(topo_idx);
  const auto algo = make_algorithm(name);
  if (name == "colored") return;  // validated separately (even ring only)
  rng::Rng rng(404);
  sim::RandomUniform sched;
  sim::EngineConfig cfg;
  cfg.max_steps = 300;
  // Sample states along a run; at each, audit every philosopher's branches.
  SimState s = algo->initial_state(t);
  for (int step = 0; step < 200; ++step) {
    for (PhilId p = 0; p < t.num_phils(); ++p) {
      const auto branches = algo->step(t, s, p);
      ASSERT_FALSE(branches.empty());
      const double total = std::accumulate(
          branches.begin(), branches.end(), 0.0,
          [](double acc, const Branch& b) { return acc + b.prob; });
      ASSERT_NEAR(total, 1.0, 1e-9) << name << " @" << t.name() << " phil " << p;
      for (const Branch& b : branches) ASSERT_GT(b.prob, 0.0);
    }
    const PhilId p = rng.uniform_int(0, t.num_phils() - 1);
    s = sim::sample_branch(algo->step(t, s, p), rng).next;
  }
}

TEST_P(AlgorithmContract, InvariantsHoldAndFairRunsProgress) {
  const auto [name, topo_idx] = GetParam();
  const auto t = contract_topology(topo_idx);
  if (name == "colored") return;
  const auto algo = make_algorithm(name);
  sim::LongestWaiting sched;
  rng::Rng rng(777 + topo_idx);
  sim::EngineConfig cfg;
  cfg.max_steps = 60'000;
  cfg.check_invariants = true;
  const auto result = sim::run(*algo, t, sched, rng, cfg);
  EXPECT_TRUE(result.invariant_violation.empty()) << result.invariant_violation;
  if (name == "ticket" && topo_idx >= 2) {
    // Ticket may deadlock off the classic ring — that is experiment E9's
    // point; other algorithms must progress.
    return;
  }
  EXPECT_GT(result.total_meals, 0u) << name << " on " << t.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AlgorithmContract,
    ::testing::Combine(::testing::Values("lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered",
                                         "arbiter", "ticket"),
                       ::testing::Range(0, 7)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gdp::algos
