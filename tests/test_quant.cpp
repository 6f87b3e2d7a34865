// The quantitative checker's contract: sound certified intervals on
// hand-computed MDPs, interval-iteration bracket invariants, bit-identical
// results at every thread count, refusal to certify truncated models,
// agreement with the qualitative fair-EC verdicts and the uniform-chain
// numbers on the paper's instances, and bit-for-bit agreement with a
// plain reference implementation of the same kernels on random MDPs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/chain_analysis.hpp"
#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/par/par.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/quant/quant_impl.hpp"
#include "gdp/mdp/store/store.hpp"
#include "random_mdp.hpp"

namespace gdp::mdp::quant {
namespace {

constexpr double kInfD = std::numeric_limits<double>::infinity();

/// Hand-built MDP helper: rows in (state-major, philosopher-major) order;
/// rows[s * num_phils + p] lists that action's (prob, next) outcomes.
Model hand_model(int num_phils, const std::vector<std::vector<Outcome>>& rows,
                 std::vector<std::uint64_t> eaters, std::vector<bool> frontier = {},
                 bool truncated = false) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    for (const Outcome& o : row) outcomes.push_back(o);
    offsets.push_back(outcomes.size());
  }
  if (frontier.empty()) frontier.assign(eaters.size(), false);
  return Model::build(num_phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                      std::move(frontier), truncated);
}

void expect_point(const Interval& iv, double value, double eps = 1e-6) {
  EXPECT_LE(iv.width(), eps);
  EXPECT_TRUE(iv.contains(value, 1e-9)) << "[" << iv.lower << ", " << iv.upper << "] vs " << value;
}

// --- Hand-computed models. -------------------------------------------------

// Two philosophers, two states: s0 -> meal via P0, P1 busy-waits. The
// {s0, P1} self-loop is an avoiding MEC but not a fair one, so progress is
// certain; one productive step feeds P0 from anywhere.
TEST(QuantHand, CertainTwoState) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},          // s0, P0: eat
                              {{1.0f, 0}},          // s0, P1: busy-wait
                              {{1.0f, 1}},          // s1, P0
                              {{1.0f, 1}}},         // s1, P1
                             {0, 0b01});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_TRUE(r.progress_certain());
  expect_point(r.p_min, 1.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.p_trap, 0.0);
  expect_point(r.e_min, 1.0);
  expect_point(r.e_max, 1.0);
  EXPECT_EQ(r.num_avoid_mecs, 1u);       // {s0} through P1's self-loop
  EXPECT_EQ(r.num_fair_avoid_mecs, 0u);  // P0 has no action inside it
  EXPECT_FALSE(r.fair_trap_reachable);
}

// s2 is a fair trap (both philosophers loop inside): scheduling P1 from s0
// reaches it surely, so the fair-adversary minimum is 0 even though the
// maximum is 1.
TEST(QuantHand, FairTrapThreeState) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},   // s0, P0: eat
                              {{1.0f, 2}},   // s0, P1: into the trap
                              {{1.0f, 1}},   // s1, P0
                              {{1.0f, 1}},   // s1, P1
                              {{1.0f, 2}},   // s2, P0: loop
                              {{1.0f, 2}}},  // s2, P1: loop
                             {0, 0b01, 0});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  EXPECT_FALSE(r.progress_certain());
  EXPECT_TRUE(r.fair_trap_reachable);
  EXPECT_EQ(r.num_fair_avoid_mecs, 1u);
  expect_point(r.p_min, 0.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.p_trap, 1.0);
  expect_point(r.e_min, 1.0);
  EXPECT_EQ(r.e_max.lower, kInfD);  // certified infinite
  EXPECT_EQ(r.e_max.upper, kInfD);
  // The qualitative checker must agree.
  EXPECT_EQ(check_fair_progress(m).verdict, Verdict::kProgressFails);
}

// Geometric meal: P0's action eats with probability 1/2 and retries
// otherwise, so every expected-time notion is exactly 2; dwell on P1's
// self-loop is unproductive and does not change the worst case.
TEST(QuantHand, GeometricLoop) {
  const Model m = hand_model(2,
                             {{{0.5f, 1}, {0.5f, 0}},  // s0, P0: coin
                              {{1.0f, 0}},             // s0, P1: busy-wait
                              {{1.0f, 1}},             // s1, P0
                              {{1.0f, 1}}},            // s1, P1
                             {0, 0b01});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  expect_point(r.p_min, 1.0);
  expect_point(r.p_max, 1.0);
  expect_point(r.e_min, 2.0);
  expect_point(r.e_max, 2.0);
}

// A coin that can land in an absorbing non-eating dead end: every
// probability is exactly 1/2 and no scheduler reaches the meal surely, so
// both expected times are certified infinite.
TEST(QuantHand, HalfTrapHalfMeal) {
  const Model m = hand_model(2,
                             {{{0.5f, 1}, {0.5f, 2}},  // s0, P0: coin between meal and trap
                              {{1.0f, 0}},             // s0, P1: busy-wait
                              {{1.0f, 1}},             // s1, P0
                              {{1.0f, 1}},             // s1, P1
                              {{1.0f, 2}},             // s2, P0: loop
                              {{1.0f, 2}}},            // s2, P1: loop
                             {0, 0b01, 0});
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kCertified);
  expect_point(r.p_min, 0.5);
  expect_point(r.p_max, 0.5);
  expect_point(r.p_trap, 0.5);
  EXPECT_EQ(r.e_min.lower, kInfD);  // Pmax < 1: no scheduler eats surely
  EXPECT_EQ(r.e_max.lower, kInfD);
}

// Lockout-style subset target: only P1's meals count. P0 eats and loops
// back; a fair adversary can starve P1 forever only if some fair avoiding
// MEC exists — here P1 always gets its meal once scheduled.
TEST(QuantHand, SubsetTargetMask) {
  const Model m = hand_model(2,
                             {{{1.0f, 1}},   // s0, P0: P0 eats
                              {{1.0f, 2}},   // s0, P1: P1 eats
                              {{1.0f, 0}},   // s1, P0: back to start
                              {{1.0f, 2}},   // s1, P1
                              {{1.0f, 2}},   // s2, P0
                              {{1.0f, 2}}},  // s2, P1
                             {0, 0b01, 0b10});
  const QuantResult whole = analyze(m, ~std::uint64_t{0});
  expect_point(whole.p_min, 1.0);
  // Target = P1 only: s1 (P0 eating) is an ordinary state of the fragment.
  const QuantResult p1 = analyze(m, 0b10);
  EXPECT_EQ(p1.certainty, Certainty::kCertified);
  expect_point(p1.p_min, 1.0);
  expect_point(p1.p_max, 1.0);
}

// --- Truncated-model refusal. ----------------------------------------------

TEST(QuantTruncated, NeverClaimsCertainty) {
  const auto algo = algos::make_algorithm("lr1");
  QuantOptions opts;
  opts.max_states = 500;
  const QuantResult r = analyze(*algo, graph::fig1a(), opts);
  EXPECT_EQ(r.certainty, Certainty::kTruncated);
  EXPECT_FALSE(r.progress_certain());
  // Sound but unknowing: probability bounds straddle, time upper bounds
  // are infinite unless the lower bound already certifies infinity.
  EXPECT_LE(r.p_min.lower, r.p_min.upper);
  EXPECT_EQ(r.e_min.upper, kInfD);
  EXPECT_EQ(r.e_max.upper, kInfD);
}

TEST(QuantTruncated, HandBuiltFrontierStraddles) {
  // s0 steps into an unexplored frontier state: nothing can be certified.
  const Model m = hand_model(1, {{{1.0f, 1}}, {}}, {0, 0}, {false, true}, true);
  const QuantResult r = analyze(m);
  EXPECT_EQ(r.certainty, Certainty::kTruncated);
  EXPECT_EQ(r.p_min.lower, 0.0);
  EXPECT_EQ(r.p_min.upper, 1.0);
  EXPECT_EQ(r.p_max.lower, 0.0);
  EXPECT_EQ(r.p_max.upper, 1.0);
  EXPECT_FALSE(r.progress_certain());
}

// --- Bracket invariants. ---------------------------------------------------

// Interval iteration must bracket from both sides: a coarser epsilon stops
// earlier, so its probability interval contains every finer one (the lower
// bound only rises, the upper only falls), and upper >= lower throughout.
TEST(QuantBrackets, EpsilonNesting) {
  const auto algo = algos::make_algorithm("lr1");
  const Model m = par::explore(*algo, graph::parallel_arcs(3));
  QuantResult prev;
  bool have_prev = false;
  for (const double eps : {1e-2, 1e-4, 1e-6}) {
    QuantOptions opts;
    opts.epsilon = eps;
    const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
    for (const Interval* iv : {&r.p_min, &r.p_max, &r.p_trap, &r.e_min, &r.e_max}) {
      EXPECT_GE(iv->upper, iv->lower);
    }
    if (have_prev) {
      EXPECT_GE(r.p_min.lower + 1e-12, prev.p_min.lower);
      EXPECT_LE(r.p_min.upper - 1e-12, prev.p_min.upper);
      EXPECT_GE(r.p_max.lower + 1e-12, prev.p_max.lower);
      EXPECT_LE(r.p_max.upper - 1e-12, prev.p_max.upper);
      EXPECT_GE(r.p_trap.lower + 1e-12, prev.p_trap.lower);
      EXPECT_LE(r.p_trap.upper - 1e-12, prev.p_trap.upper);
    }
    prev = r;
    have_prev = true;
  }
  EXPECT_LE(prev.p_min.width(), 1e-6);
  EXPECT_LE(prev.p_max.width(), 1e-6);
}

// --- Thread-count determinism. ---------------------------------------------

std::vector<int> quant_thread_counts() {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts{1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

void expect_identical_intervals(const QuantResult& a, const QuantResult& b) {
  EXPECT_EQ(a.p_min, b.p_min);
  EXPECT_EQ(a.p_max, b.p_max);
  EXPECT_EQ(a.p_trap, b.p_trap);
  EXPECT_EQ(a.e_min, b.e_min);
  EXPECT_EQ(a.e_max, b.e_max);
  EXPECT_EQ(a.certainty, b.certainty);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.num_quotient_nodes, b.num_quotient_nodes);
}

TEST(QuantDeterminism, BitIdenticalAcrossThreadCounts) {
  struct Case {
    const char* algo;
    graph::Topology t;
  };
  const Case cases[] = {{"lr1", graph::classic_ring(3)},
                        {"lr1", graph::parallel_arcs(3)},
                        {"gdp1", graph::classic_ring(3)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name());
    const auto algo = algos::make_algorithm(c.algo);
    const Model m = par::explore(*algo, c.t);
    QuantResult base;
    bool have_base = false;
    for (const int threads : quant_thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      QuantOptions opts;
      opts.threads = threads;
      opts.seq_sweep_threshold = 1;  // force the pool even on small models
      opts.seq_mec_threshold = 1;
      opts.seq_scc_region = 32;
      const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
      if (have_base) {
        expect_identical_intervals(base, r);
      } else {
        base = r;
        have_base = true;
      }
    }
  }
}

// The multi-target entry point shares the reachability sweep and the
// full-model MEC/quotient pieces across targets; every per-target result
// must still match the single-target call bit for bit — including the
// sweep counters, which would drift if any shared piece leaked
// target-dependent state.
TEST(QuantMultiTarget, BitIdenticalToSingleTargetCalls) {
  struct Case {
    const char* algo;
    graph::Topology t;
  };
  const Case cases[] = {{"lr1", graph::classic_ring(3)},
                        {"lr1", graph::parallel_arcs(3)},
                        {"gdp1", graph::classic_ring(3)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name());
    const auto algo = algos::make_algorithm(c.algo);
    const Model m = par::explore(*algo, c.t);

    // All singleton masks (per-philosopher lockout freedom) plus the union
    // target and a repeat — repeats must not perturb the shared state.
    std::vector<std::uint64_t> targets;
    for (int p = 0; p < c.t.num_phils(); ++p) targets.push_back(std::uint64_t{1} << p);
    targets.push_back(~std::uint64_t{0});
    targets.push_back(std::uint64_t{1});

    for (const int threads : quant_thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      QuantOptions opts;
      opts.threads = threads;
      opts.seq_sweep_threshold = 1;  // force the pool even on small models
      opts.seq_mec_threshold = 1;
      opts.seq_scc_region = 32;
      const std::vector<QuantResult> multi = analyze(m, targets, opts);
      ASSERT_EQ(multi.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        SCOPED_TRACE("target mask " + std::to_string(targets[i]));
        const QuantResult single = analyze(m, targets[i], opts);
        EXPECT_EQ(multi[i].target_set, targets[i]);
        expect_identical_intervals(single, multi[i]);
        EXPECT_EQ(single.num_avoid_mecs, multi[i].num_avoid_mecs);
        EXPECT_EQ(single.num_fair_avoid_mecs, multi[i].num_fair_avoid_mecs);
        EXPECT_EQ(single.fair_trap_reachable, multi[i].fair_trap_reachable);
      }
    }
  }
}

// --- The acceptance matrix: every (algorithm x topology) instance the
// parallel-engine suite pins, quantified. kProgressCertain instances must
// certify Pmin = 1; kProgressFails instances must certify the gap
// (Pmin < 1 or a positive trap probability); intervals are certified to
// width <= 1e-6 and identical at threads {1, 2, hw}. ---

void expect_quant_matches_verdict(const std::string& algo_name, const graph::Topology& t) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const Model m = par::explore(*algo, t);
  ASSERT_FALSE(m.truncated());
  const FairProgressResult verdict = par::check_fair_progress(m);

  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  QuantResult base;
  bool have_base = false;
  for (const int threads : {1, 2, hw}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QuantOptions opts;
    opts.threads = threads;
    const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
    ASSERT_EQ(r.certainty, Certainty::kCertified);
    EXPECT_LE(r.p_min.width(), 1e-6);
    EXPECT_LE(r.p_max.width(), 1e-6);
    EXPECT_LE(r.p_trap.width(), 1e-6);
    if (verdict.verdict == Verdict::kProgressCertain) {
      EXPECT_TRUE(r.progress_certain());
      EXPECT_GE(r.p_min.lower, 1.0 - 1e-6);
      EXPECT_EQ(r.p_trap.upper, 0.0);
      EXPECT_TRUE(r.e_max.finite()) << "certified progress must bound the worst case";
      EXPECT_GE(r.e_max.lower + 1e-6, r.e_min.upper - 1e-6);
    } else {
      ASSERT_EQ(verdict.verdict, Verdict::kProgressFails);
      EXPECT_TRUE(r.p_min.upper < 1.0 || r.p_trap.lower > 0.0)
          << "a failing verdict must be quantitatively visible";
      EXPECT_EQ(r.e_max.lower, kInfD);
    }
    if (have_base) {
      expect_identical_intervals(base, r);
    } else {
      base = r;
      have_base = true;
    }
  }
}

TEST(QuantMatrix, Lr1Ring3) { expect_quant_matches_verdict("lr1", graph::classic_ring(3)); }
TEST(QuantMatrix, Lr1Ring4) { expect_quant_matches_verdict("lr1", graph::classic_ring(4)); }
TEST(QuantMatrix, Lr1RingWithPendant) {
  expect_quant_matches_verdict("lr1", graph::ring_with_pendant(3));
}
TEST(QuantMatrix, Lr1Fig1a) { expect_quant_matches_verdict("lr1", graph::fig1a()); }
TEST(QuantMatrix, Lr2ParallelArcs3) { expect_quant_matches_verdict("lr2", graph::parallel_arcs(3)); }
TEST(QuantMatrix, Gdp1Ring3) { expect_quant_matches_verdict("gdp1", graph::classic_ring(3)); }
TEST(QuantMatrix, Gdp1ParallelArcs3) {
  expect_quant_matches_verdict("gdp1", graph::parallel_arcs(3));
}
TEST(QuantMatrix, TicketFig1a) { expect_quant_matches_verdict("ticket", graph::fig1a()); }
TEST(QuantMatrix, Gdp2Ring3) { expect_quant_matches_verdict("gdp2", graph::classic_ring(3)); }
TEST(QuantMatrix, Lr2Ring4) { expect_quant_matches_verdict("lr2", graph::classic_ring(4)); }

// --- Consistency with the uniform-chain analysis (the satellite bugnet):
// the uniform scheduler is one fair adversary, so its reach probability
// must lie inside [Pmin, Pmax], and the qualitative verdict must match the
// quantitative certificate on every instance of the cross-check matrix. ---

void expect_chain_inside_bounds(const std::string& algo_name, const graph::Topology& t,
                                std::size_t max_states) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  par::CheckOptions copts;
  copts.max_states = max_states;
  const Model m = par::explore(*algo, t, copts);

  QuantOptions opts;
  opts.max_states = max_states;
  const QuantResult r = analyze(m, ~std::uint64_t{0}, opts);
  if (m.truncated()) {
    // The refusal side of the satellite: an incomplete model never claims.
    EXPECT_EQ(r.certainty, Certainty::kTruncated);
    EXPECT_FALSE(r.progress_certain());
    return;
  }
  ASSERT_EQ(r.certainty, Certainty::kCertified);

  const ChainAnalysis chain = analyze_uniform_chain(m);
  EXPECT_GE(chain.p_reach, r.p_min.lower - 1e-5);
  EXPECT_LE(chain.p_reach, r.p_max.upper + 1e-5);
  if (chain.expected_converged) {
    // Every counted uniform step is also counted by e_min.
    EXPECT_GE(chain.expected_steps, r.e_min.lower - 1e-5);
  }

  const FairProgressResult verdict = par::check_fair_progress(m);
  if (verdict.verdict == Verdict::kProgressCertain) {
    EXPECT_TRUE(r.progress_certain());
  } else {
    EXPECT_TRUE(r.p_min.upper < 1.0 || r.p_trap.lower > 0.0);
  }
}

TEST(QuantChainCrossCheck, RingChordParallelStar) {
  const graph::Topology topologies[] = {graph::classic_ring(3), graph::ring_with_chord(4),
                                        graph::parallel_arcs(3), graph::star(3)};
  const char* algorithms[] = {"lr1", "lr2", "gdp1", "gdp2"};
  for (const auto& t : topologies) {
    for (const char* algo : algorithms) {
      // Everything but lr1 explodes past 2M states on the chord topology; a
      // tight cap keeps the matrix fast and those cells exercise the
      // truncation-refusal path instead (lr1/chord stays the complete
      // chord representative).
      const bool heavy = t.num_phils() > 4 && std::string(algo) != "lr1";
      expect_chain_inside_bounds(algo, t, heavy ? 300'000 : 2'000'000);
    }
  }
}


// --- A plain reference of the quant kernels. ------------------------------
//
// The shipped kernels deduplicate quotient actions, store probabilities as
// floats behind 32-bit offsets, fuse each sweep with its residual, compile
// e_min once per target and take e_min's domain from the quotient. The
// reference below does none of that: an undeduplicated quotient with
// double probabilities, one sequential Jacobi sweep per bound followed by
// separate residual passes, an e_min that reads the model on every sweep,
// and a depth-first search for e_min's domain. Both must agree bit for
// bit: every interval endpoint, every per-phase sweep count.

namespace ref {

constexpr std::uint32_t kGoal = 0xFFFFFFFFu;
constexpr std::uint32_t kUnknown = 0xFFFFFFFEu;
constexpr std::uint32_t kAbsent = 0xFFFFFFFDu;

bool is_node(std::uint32_t c) { return c < kAbsent; }

struct Quotient {
  std::uint32_t num_nodes = 0;
  std::uint32_t initial = kAbsent;
  std::vector<std::uint32_t> node_of;
  std::vector<std::int32_t> mec_node;
  std::vector<std::size_t> act_off, out_off;
  std::vector<double> prob;
  std::vector<std::uint32_t> dest;

  bool has_actions(std::uint32_t q) const { return act_off[q + 1] > act_off[q]; }

  std::vector<std::uint8_t> reachable_nodes() const {
    std::vector<std::uint8_t> seen(num_nodes, 0);
    if (!is_node(initial)) return seen;
    std::vector<std::uint32_t> stack{initial};
    seen[initial] = 1;
    while (!stack.empty()) {
      const std::uint32_t q = stack.back();
      stack.pop_back();
      for (std::size_t a = act_off[q]; a < act_off[q + 1]; ++a) {
        for (std::size_t o = out_off[a]; o < out_off[a + 1]; ++o) {
          if (is_node(dest[o]) && !seen[dest[o]]) {
            seen[dest[o]] = 1;
            stack.push_back(dest[o]);
          }
        }
      }
    }
    return seen;
  }
};

Quotient build_quotient(const Model& model, const std::vector<EndComponent>& mecs,
                        const std::vector<bool>& reached, std::uint64_t target_mask,
                        bool target_terminal) {
  const std::size_t n = model.num_states();
  Quotient q;
  q.node_of.assign(n, kAbsent);
  q.mec_node.assign(mecs.size(), -1);
  std::vector<std::int32_t> mec_of(n, -1);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    for (const StateId s : mecs[m].states) mec_of[s] = static_cast<std::int32_t>(m);
  }
  for (StateId s = 0; s < n; ++s) {
    if (!reached[s]) continue;
    if (target_terminal && (model.eaters(s) & target_mask) != 0) {
      q.node_of[s] = kGoal;
    } else if (model.frontier(s)) {
      q.node_of[s] = kUnknown;
    } else if (mec_of[s] >= 0) {
      if (q.mec_node[mec_of[s]] < 0) q.mec_node[mec_of[s]] = static_cast<std::int32_t>(q.num_nodes++);
      q.node_of[s] = static_cast<std::uint32_t>(q.mec_node[mec_of[s]]);
    } else {
      q.node_of[s] = q.num_nodes++;
    }
  }
  q.initial = reached[model.initial()] ? q.node_of[model.initial()] : kAbsent;

  std::vector<std::vector<StateId>> members(q.num_nodes);
  for (StateId s = 0; s < n; ++s) {
    if (is_node(q.node_of[s])) members[q.node_of[s]].push_back(s);
  }
  q.act_off.push_back(0);
  q.out_off.push_back(0);
  for (std::uint32_t node = 0; node < q.num_nodes; ++node) {
    for (const StateId s : members[node]) {
      for (int p = 0; p < model.num_phils(); ++p) {
        const auto [begin, end] = model.row(s, p);
        if (begin == end) continue;
        bool internal = mec_of[s] >= 0;
        for (const Outcome* o = begin; o != end && internal; ++o) {
          internal = q.node_of[o->next] == node;
        }
        if (internal) continue;
        for (const Outcome* o = begin; o != end; ++o) {
          q.prob.push_back(static_cast<double>(o->prob));
          q.dest.push_back(q.node_of[o->next]);
        }
        q.out_off.push_back(q.dest.size());
      }
    }
    q.act_off.push_back(q.out_off.size() - 1);
  }
  return q;
}

struct Phase {
  std::size_t sweeps = 0;
  bool converged = false;
};

double bell_max(const Quotient& q, std::uint32_t i, const std::vector<double>& val, double goal,
                double unknown, double cost, double sink) {
  double best = -kInfD;
  for (std::size_t a = q.act_off[i]; a < q.act_off[i + 1]; ++a) {
    double acc = cost;
    for (std::size_t o = q.out_off[a]; o < q.out_off[a + 1]; ++o) {
      const std::uint32_t d = q.dest[o];
      acc += q.prob[o] * (d == kGoal ? goal : d == kUnknown ? unknown : val[d]);
    }
    best = std::max(best, acc);
  }
  return best == -kInfD ? sink : best;
}

Phase iterate_reach_max(const Quotient& q, const std::vector<double>& pinned, double goal_value,
                        const QuantOptions& options, std::vector<double>& lo,
                        std::vector<double>& hi) {
  const std::size_t n = q.num_nodes;
  lo.assign(n, 0.0);
  hi.assign(n, 1.0);
  std::vector<double> lo2(n), hi2(n);
  std::vector<std::uint8_t> fixed(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pinned[i] >= 0.0) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = pinned[i];
      fixed[i] = 1;
    } else if (!q.has_actions(i)) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = 0.0;
      fixed[i] = 1;
    }
  }
  Phase phase;
  if (n == 0) {
    phase.converged = true;
    return phase;
  }
  while (phase.sweeps < options.max_iterations) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (fixed[i]) continue;
      lo2[i] = std::min(1.0, std::max(lo[i], bell_max(q, i, lo, goal_value, 0.0, 0.0, 0.0)));
      hi2[i] = std::max(0.0, std::min(hi[i], bell_max(q, i, hi, goal_value, 1.0, 0.0, 0.0)));
    }
    lo.swap(lo2);
    hi.swap(hi2);
    ++phase.sweeps;
    double width = 0.0;
    for (std::size_t i = 0; i < n; ++i) width = std::max(width, hi[i] - lo[i]);
    if (width <= options.epsilon) {
      phase.converged = true;
      break;
    }
    double moved = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      moved = std::max(moved, std::max(lo[i] - lo2[i], hi2[i] - hi[i]));
    }
    if (moved <= options.epsilon * 1e-3) break;
  }
  return phase;
}

template <typename Active, typename Bell>
Phase drive_time_bounds(std::size_t n, bool complete, const QuantOptions& options,
                        const Active& active, const Bell& bell, std::vector<double>& lo,
                        std::vector<double>& hi) {
  lo.assign(n, 0.0);
  hi.assign(n, kInfD);
  std::vector<double> lo2(lo), up(n, 0.0), up2(n, 0.0);
  Phase phase;
  auto sweep_lower = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (active(i)) lo2[i] = std::max(lo[i], bell(i, lo));
    }
    lo.swap(lo2);
    ++phase.sweeps;
  };
  auto residual = [&] {
    double r = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (active(i) && std::isfinite(lo[i])) r = std::max(r, lo[i] - lo2[i]);
    }
    return r;
  };
  auto gap = [&] {
    double w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (active(i) && std::isfinite(lo[i])) w = std::max(w, up[i] - lo[i]);
    }
    return w;
  };
  const std::size_t budget = options.max_iterations;
  if (!complete) {
    while (phase.sweeps < budget) {
      sweep_lower();
      if (residual() <= options.epsilon / 8.0) break;
    }
    return phase;
  }
  double inflate = std::max(options.epsilon, 1e-9);
  std::size_t warm = 64;
  for (int round = 0; round < 24 && phase.sweeps < budget; ++round) {
    for (std::size_t k = 0; k < warm && phase.sweeps < budget; ++k) {
      sweep_lower();
      if (residual() <= options.epsilon / 8.0) break;
    }
    for (std::size_t i = 0; i < n; ++i) up[i] = active(i) ? lo[i] * (1.0 + inflate) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (active(i)) up2[i] = bell(i, up);
    }
    ++phase.sweeps;
    bool valid = true;
    for (std::size_t i = 0; i < n && valid; ++i) {
      if (active(i)) valid = up2[i] <= up[i];
    }
    if (!valid) {
      inflate *= 8.0;
      warm *= 2;
      continue;
    }
    up.swap(up2);
    double last_gap = kInfD;
    int stalls = 0;
    while (phase.sweeps < budget) {
      const double g = gap();
      if (g <= options.epsilon) {
        phase.converged = true;
        break;
      }
      if (g >= last_gap) {
        if (++stalls >= 8) break;
      } else {
        stalls = 0;
      }
      last_gap = g;
      sweep_lower();
      for (std::size_t i = 0; i < n; ++i) {
        if (active(i)) up2[i] = std::min(up[i], bell(i, up));
      }
      up.swap(up2);
    }
    if (phase.converged) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active(i) && std::isfinite(lo[i])) hi[i] = up[i];
      }
    }
    break;
  }
  return phase;
}

/// Raw states reachable from the initial state through meal-free expanded
/// states only, by depth-first search over the model.
std::vector<std::uint8_t> fragment_reachable(const Model& model, std::uint64_t target_mask) {
  std::vector<std::uint8_t> seen(model.num_states(), 0);
  const StateId init = model.initial();
  if ((model.eaters(init) & target_mask) != 0 || model.frontier(init)) return seen;
  std::vector<StateId> stack{init};
  seen[init] = 1;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      for (const Outcome* o = begin; o != end; ++o) {
        const StateId t = o->next;
        if (seen[t] || (model.eaters(t) & target_mask) != 0 || model.frontier(t)) continue;
        seen[t] = 1;
        stack.push_back(t);
      }
    }
  }
  return seen;
}

Phase iterate_time_min(const Model& model, std::uint64_t target_mask,
                       const std::vector<std::uint8_t>& domain,
                       const std::vector<std::uint8_t>& bad, const QuantOptions& options,
                       std::vector<double>& lo, std::vector<double>& hi) {
  auto bell = [&](std::size_t i, const std::vector<double>& val) {
    double best = kInfD;
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(static_cast<StateId>(i), p);
      if (begin == end) continue;
      double acc = 1.0;
      bool ok = true;
      for (const Outcome* o = begin; o != end && ok; ++o) {
        if ((model.eaters(o->next) & target_mask) != 0) continue;
        if (bad[o->next]) {
          ok = false;
          break;
        }
        acc += static_cast<double>(o->prob) * (model.frontier(o->next) ? 0.0 : val[o->next]);
      }
      if (ok) best = std::min(best, acc);
    }
    return best;
  };
  return drive_time_bounds(
      model.num_states(), !model.truncated(), options,
      [&](std::size_t i) { return domain[i] != 0 && !bad[i]; }, bell, lo, hi);
}

Interval make_interval(double lo, double hi) { return lo <= hi ? Interval{lo, hi} : Interval{hi, lo}; }

QuantResult analyze(const Model& model, std::uint64_t target_set, const QuantOptions& options) {
  QuantResult result;
  result.target_set = target_set;
  result.num_states = model.num_states();
  result.epsilon = options.epsilon;
  const bool complete = !model.truncated();
  const std::vector<bool> reached = reachable_states(model);

  const std::vector<EndComponent> mecs = maximal_end_components(model, target_set);
  result.num_avoid_mecs = mecs.size();
  std::vector<std::uint8_t> fair_mec(mecs.size(), 0);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    fair_mec[m] = mecs[m].fair(model.num_phils()) ? 1 : 0;
    result.num_fair_avoid_mecs += fair_mec[m];
  }
  const Quotient fq = build_quotient(model, mecs, reached, target_set, true);
  result.num_quotient_nodes = fq.num_nodes;
  const std::vector<std::uint8_t> node_reach = fq.reachable_nodes();
  std::vector<std::uint8_t> fair_node(fq.num_nodes, 0);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    if (fair_mec[m] && fq.mec_node[m] >= 0) fair_node[fq.mec_node[m]] = 1;
  }
  for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
    if (fair_node[i] && node_reach[i]) result.fair_trap_reachable = true;
  }
  if (is_node(fq.initial) && fair_node[fq.initial]) result.fair_trap_reachable = true;
  const bool initial_target = fq.initial == kGoal;
  const bool initial_unknown = fq.initial == kUnknown || fq.initial == kAbsent;

  bool all_converged = true;
  auto note = [&](std::size_t& slot, const Phase& phase) {
    slot = phase.sweeps;
    result.sweeps += phase.sweeps;
    all_converged = all_converged && phase.converged;
    if (!phase.converged) ++result.stats.stalled_phases;
  };
  std::vector<double> lo, hi, hi_pmax;

  if (initial_target) {
    result.p_max = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_max = {0.0, 1.0};
    all_converged = false;
  } else {
    note(result.stats.p_max_sweeps,
         iterate_reach_max(fq, std::vector<double>(fq.num_nodes, -1.0), 1.0, options, lo, hi_pmax));
    result.p_max = make_interval(lo[fq.initial], hi_pmax[fq.initial]);
  }

  if (initial_target) {
    result.p_min = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_min = {0.0, 1.0};
    all_converged = false;
  } else if (!result.fair_trap_reachable && complete) {
    result.p_min = {1.0, 1.0};
  } else {
    std::vector<double> pins(fq.num_nodes, -1.0);
    for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
      if (fair_node[i]) pins[i] = 1.0;
    }
    note(result.stats.p_min_sweeps, iterate_reach_max(fq, pins, 0.0, options, lo, hi));
    result.p_min = make_interval(1.0 - hi[fq.initial], 1.0 - lo[fq.initial]);
  }

  if (initial_target) {
    result.e_min = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_min = {0.0, kInfD};
    all_converged = false;
  } else if (result.p_max.upper < 1.0) {
    result.e_min = {kInfD, kInfD};
  } else {
    const std::vector<std::uint8_t> domain = fragment_reachable(model, target_set);
    std::vector<std::uint8_t> bad(model.num_states(), 0);
    for (StateId s = 0; s < model.num_states(); ++s) {
      if (is_node(fq.node_of[s]) && hi_pmax[fq.node_of[s]] < 1.0) bad[s] = 1;
    }
    note(result.stats.e_min_sweeps,
         iterate_time_min(model, target_set, domain, bad, options, lo, hi));
    result.e_min = make_interval(lo[model.initial()], hi[model.initial()]);
  }

  if (initial_target) {
    result.e_max = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_max = {0.0, kInfD};
    all_converged = false;
  } else if (result.fair_trap_reachable) {
    result.e_max = {kInfD, kInfD};
  } else {
    note(result.stats.e_max_sweeps,
         drive_time_bounds(
             fq.num_nodes, complete, options, [&](std::size_t i) { return node_reach[i] != 0; },
             [&](std::size_t i, const std::vector<double>& val) {
               return bell_max(fq, static_cast<std::uint32_t>(i), val, 0.0, 0.0, 1.0, kInfD);
             },
             lo, hi));
    result.e_max = make_interval(lo[fq.initial], hi[fq.initial]);
  }

  if (result.num_fair_avoid_mecs == 0 && complete) {
    result.p_trap = {0.0, 0.0};
  } else {
    const Quotient full_q = build_quotient(model, maximal_end_components(model, 0), reached, 0, false);
    std::vector<double> pins(full_q.num_nodes, -1.0);
    for (std::size_t m = 0; m < mecs.size(); ++m) {
      if (!fair_mec[m]) continue;
      for (const StateId s : mecs[m].states) {
        if (reached[s] && is_node(full_q.node_of[s])) pins[full_q.node_of[s]] = 1.0;
      }
    }
    if (full_q.initial == kUnknown || full_q.initial == kAbsent) {
      result.p_trap = {0.0, 1.0};
      all_converged = false;
    } else {
      note(result.stats.p_trap_sweeps, iterate_reach_max(full_q, pins, 0.0, options, lo, hi));
      result.p_trap = make_interval(lo[full_q.initial], hi[full_q.initial]);
    }
  }
  result.certainty = !complete       ? Certainty::kTruncated
                     : all_converged ? Certainty::kCertified
                                     : Certainty::kIterationLimit;
  return result;
}

}  // namespace ref

void expect_same_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs reference " << want;
}

void expect_matches_reference(const QuantResult& got, const QuantResult& want) {
  SCOPED_TRACE("target mask " + std::to_string(want.target_set));
  const std::pair<const char*, std::pair<const Interval*, const Interval*>> ivs[] = {
      {"p_min", {&got.p_min, &want.p_min}}, {"p_max", {&got.p_max, &want.p_max}},
      {"p_trap", {&got.p_trap, &want.p_trap}}, {"e_min", {&got.e_min, &want.e_min}},
      {"e_max", {&got.e_max, &want.e_max}}};
  for (const auto& [name, pair] : ivs) {
    expect_same_bits(pair.first->lower, pair.second->lower, name);
    expect_same_bits(pair.first->upper, pair.second->upper, name);
  }
  EXPECT_EQ(got.certainty, want.certainty);
  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(got.stats.p_max_sweeps, want.stats.p_max_sweeps);
  EXPECT_EQ(got.stats.p_min_sweeps, want.stats.p_min_sweeps);
  EXPECT_EQ(got.stats.e_min_sweeps, want.stats.e_min_sweeps);
  EXPECT_EQ(got.stats.e_max_sweeps, want.stats.e_max_sweeps);
  EXPECT_EQ(got.stats.p_trap_sweeps, want.stats.p_trap_sweeps);
  EXPECT_EQ(got.stats.stalled_phases, want.stats.stalled_phases);
  EXPECT_EQ(got.num_quotient_nodes, want.num_quotient_nodes);
  EXPECT_EQ(got.num_avoid_mecs, want.num_avoid_mecs);
  EXPECT_EQ(got.num_fair_avoid_mecs, want.num_fair_avoid_mecs);
  EXPECT_EQ(got.fair_trap_reachable, want.fair_trap_reachable);
}

std::vector<std::uint64_t> all_and_singleton_targets(int phils) {
  std::vector<std::uint64_t> targets{~std::uint64_t{0}};
  for (int p = 0; p < phils; ++p) targets.push_back(std::uint64_t{1} << p);
  return targets;
}

/// Options that put every pass on the pool even for small domains.
QuantOptions pooled_options(int threads, std::size_t max_iterations = 50'000) {
  QuantOptions opts;
  opts.threads = threads;
  opts.max_iterations = max_iterations;
  opts.seq_sweep_threshold = 1;
  opts.seq_mec_threshold = 1;
  opts.seq_scc_region = 16;
  return opts;
}

/// Compares analyze() at threads {1, 2, 4} with the reference on every
/// all-or-singleton target; returns the reference results.
std::vector<QuantResult> expect_model_matches_reference(const Model& m,
                                                        std::size_t max_iterations = 50'000) {
  const std::vector<std::uint64_t> targets = all_and_singleton_targets(m.num_phils());
  std::vector<QuantResult> want;
  for (const std::uint64_t t : targets) {
    want.push_back(ref::analyze(m, t, pooled_options(1, max_iterations)));
  }
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::vector<QuantResult> got = analyze(m, targets, pooled_options(threads, max_iterations));
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      expect_matches_reference(got[i], want[i]);
    }
  }
  return want;
}

testutil::RandomMdpShape quant_shape(std::uint64_t seed) {
  testutil::RandomMdpShape shape;
  shape.states = 20 + (seed * 397) % 1'500;
  shape.phils = 2 + static_cast<int>(seed % 3);
  shape.giant_share = (seed % 4) * 0.2;
  shape.chain_group = 2 + seed % 4;
  shape.frontier_prob = seed % 3 == 0 ? 0.02 : 0.0;
  shape.duplicate_prob = 0.4;
  return shape;
}

TEST(QuantReference, RandomMdpsMatchAtEveryThreadCount) {
  // Sweeps per phase across the suite, split by complete / truncated
  // model: the comparison only means something if every phase runs on
  // both kinds.
  AnalyzeStats complete, truncated;
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Model m = testutil::random_mdp(seed, quant_shape(seed));
    for (const QuantResult& r : expect_model_matches_reference(m, 4'000)) {
      AnalyzeStats& sum = m.truncated() ? truncated : complete;
      sum.p_max_sweeps += r.stats.p_max_sweeps;
      sum.p_min_sweeps += r.stats.p_min_sweeps;
      sum.e_min_sweeps += r.stats.e_min_sweeps;
      sum.e_max_sweeps += r.stats.e_max_sweeps;
      sum.p_trap_sweeps += r.stats.p_trap_sweeps;
    }
  }
  for (const AnalyzeStats* sum : {&complete, &truncated}) {
    EXPECT_GT(sum->p_max_sweeps, 0u);
    EXPECT_GT(sum->p_min_sweeps, 0u);
    EXPECT_GT(sum->e_min_sweeps, 0u);
    EXPECT_GT(sum->e_max_sweeps, 0u);
    EXPECT_GT(sum->p_trap_sweeps, 0u);
  }
}

TEST(QuantReference, LargeRandomMdpsSpanSeveralRanges) {
  // Past three 4,096-element ranges, so every pass runs as several pool
  // tasks whose partial maxima are folded.
  for (const std::uint64_t seed : {101u, 102u, 103u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomMdpShape shape = quant_shape(seed);
    shape.states = 14'000;
    shape.giant_share = 0.4;
    expect_model_matches_reference(testutil::random_mdp(seed, shape), 4'000);
  }
}

TEST(QuantReference, PaperInstancesMatchAtEveryThreadCount) {
  struct Case {
    const char* algo;
    graph::Topology t;
    std::size_t cap;
  };
  const Case cases[] = {{"lr1", graph::classic_ring(3), 2'000'000},
                        {"lr2", graph::parallel_arcs(3), 2'000'000},
                        {"gdp1", graph::classic_ring(3), 2'000'000},
                        {"gdp2", graph::classic_ring(3), 20'000},
                        {"lr1", graph::fig1a(), 500}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name() + " cap " + std::to_string(c.cap));
    const auto algo = algos::make_algorithm(c.algo);
    par::CheckOptions co;
    co.max_states = c.cap;
    expect_model_matches_reference(par::explore(*algo, c.t, co));
  }
}

TEST(QuantReference, ChunkedModelsMatchAtEveryThreadCount) {
  // The chunk-native instantiation over small chunks, complete and capped,
  // spilled to disk when GDP_TEST_FORCE_SPILL is set.
  const char* force = std::getenv("GDP_TEST_FORCE_SPILL");
  const bool spill = force != nullptr && std::string(force) == "1";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gdp_test_quant_chunked";
  for (const std::size_t cap : {std::size_t{2'000'000}, std::size_t{3'000}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    const auto algo = algos::make_algorithm("gdp1");
    const graph::Topology t = graph::classic_ring(3);
    par::CheckOptions co;
    co.max_states = cap;
    const Model m = par::explore(*algo, t, co);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      store::StoreOptions so;
      so.chunk_states = 256;
      so.spill = spill;
      so.dir = dir.string();
      so.max_resident_chunks = spill ? 2 : 0;
      co.threads = threads;
      const store::ChunkedModel chunked = store::explore(*algo, t, so, co);
      for (const std::uint64_t target : all_and_singleton_targets(m.num_phils())) {
        expect_matches_reference(store::analyze(chunked, target, pooled_options(threads)),
                                 ref::analyze(m, target, pooled_options(1)));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// e_min's domain is read off the quotient (members of quotient-reachable
// nodes) instead of a depth-first search over the raw model; the two sets
// must be equal.
TEST(QuantReference, EminDomainEqualsFragmentDfs) {
  std::vector<Model> models;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    models.push_back(testutil::random_mdp(seed, quant_shape(seed)));
  }
  models.push_back(par::explore(*algos::make_algorithm("gdp1"), graph::classic_ring(3)));
  par::CheckOptions capped;
  capped.max_states = 500;
  models.push_back(par::explore(*algos::make_algorithm("lr1"), graph::fig1a(), capped));
  std::size_t raw_actions = 0, kept_actions = 0;
  for (std::size_t k = 0; k < models.size(); ++k) {
    const Model& m = models[k];
    const std::vector<bool> reached = reachable_states(m);
    for (const std::uint64_t target : all_and_singleton_targets(m.num_phils())) {
      SCOPED_TRACE("model " + std::to_string(k) + " target " + std::to_string(target));
      const auto mecs = maximal_end_components(m, target);
      const detail::Quotient fq =
          detail::build_quotient(m, MecList::from(mecs), reached, target, true, pooled_options(2));
      raw_actions += ref::build_quotient(m, mecs, reached, target, true).out_off.size() - 1;
      kept_actions += fq.num_actions();
      const std::vector<std::uint8_t> node_reach = fq.reachable_nodes();
      const std::vector<std::uint8_t> dfs = ref::fragment_reachable(m, target);
      for (StateId s = 0; s < m.num_states(); ++s) {
        ASSERT_EQ(detail::in_fragment(fq, node_reach, s), dfs[s] != 0) << "state " << s;
      }
    }
  }
  // The generator's planted duplicates reach the quotient.
  EXPECT_LT(kept_actions, raw_actions);
}

// --- The per-model MEC memo. ------------------------------------------------
//
// Verdicts and quant read decompositions through the model's memo. A model
// whose memo every mask already sits in must give exactly what a fresh
// copy (whose memo starts empty) computes.

constexpr StateId kAbsentState = 0xFFFFFFFFu;

void expect_same_verdict(const FairProgressResult& got, const FairProgressResult& want) {
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.avoid_set, want.avoid_set);
  EXPECT_EQ(got.num_states, want.num_states);
  EXPECT_EQ(got.num_mecs, want.num_mecs);
  EXPECT_EQ(got.num_fair_mecs, want.num_fair_mecs);
  EXPECT_EQ(got.witness_size, want.witness_size);
  EXPECT_EQ(got.witness_state.value_or(kAbsentState), want.witness_state.value_or(kAbsentState));
}

struct Verdicts {
  std::vector<FairProgressResult> fair;  // progress, then lockout of each philosopher
  std::vector<QuantResult> quant;        // everyone, then each singleton
};

Verdicts model_verdicts(const Model& m, const QuantOptions& qo) {
  const par::CheckOptions co = qo.check_options();
  Verdicts v;
  v.fair.push_back(par::check_fair_progress(m, ~std::uint64_t{0}, co));
  for (int p = 0; p < m.num_phils(); ++p) {
    v.fair.push_back(par::check_lockout_freedom(m, static_cast<PhilId>(p), co));
  }
  v.quant = analyze(m, all_and_singleton_targets(m.num_phils()), qo);
  return v;
}

void expect_same_verdicts(const Verdicts& got, const Verdicts& want) {
  ASSERT_EQ(got.fair.size(), want.fair.size());
  for (std::size_t i = 0; i < got.fair.size(); ++i) expect_same_verdict(got.fair[i], want.fair[i]);
  ASSERT_EQ(got.quant.size(), want.quant.size());
  for (std::size_t i = 0; i < got.quant.size(); ++i) {
    expect_matches_reference(got.quant[i], want.quant[i]);
  }
}

TEST(QuantMemo, WarmModelMatchesAFreshCopy) {
  std::vector<Model> models;
  models.push_back(par::explore(*algos::make_algorithm("gdp1"), graph::classic_ring(3)));
  models.push_back(par::explore(*algos::make_algorithm("lr2"), graph::parallel_arcs(3)));
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    models.push_back(testutil::random_mdp(seed, quant_shape(seed)));
  }
  for (std::size_t k = 0; k < models.size(); ++k) {
    for (const int threads : {1, 2, 4}) {
      for (const bool pooled : {false, true}) {
        SCOPED_TRACE("model " + std::to_string(k) + " threads=" + std::to_string(threads) +
                     (pooled ? " pooled" : " default thresholds"));
        QuantOptions qo = pooled ? pooled_options(threads, 4'000) : QuantOptions{};
        qo.threads = threads;
        const Model warm = models[k];
        (void)model_verdicts(warm, qo);  // fills the memo
        ASSERT_GT(warm.mec_memo().bytes(), 0u);
        const Model fresh = warm;
        ASSERT_EQ(fresh.mec_memo().bytes(), 0u);
        expect_same_verdicts(model_verdicts(warm, qo), model_verdicts(fresh, qo));
      }
    }
  }
}

// The quotient's node numbering is the sequential ascending scan's, and
// its bytes do not depend on the thread count.
TEST(QuantQuotient, ParallelBuildMatchesTheSequentialScan) {
  std::vector<Model> models;
  for (const std::uint64_t seed : {3u, 7u, 101u}) {
    testutil::RandomMdpShape shape = quant_shape(seed);
    if (seed == 101u) shape.states = 14'000;  // several 4,096-state ranges
    models.push_back(testutil::random_mdp(seed, shape));
  }
  models.push_back(par::explore(*algos::make_algorithm("gdp1"), graph::classic_ring(3)));
  for (std::size_t k = 0; k < models.size(); ++k) {
    const Model& m = models[k];
    const std::vector<bool> reached = reachable_states(m);
    for (const std::uint64_t target : all_and_singleton_targets(m.num_phils())) {
      for (const bool terminal : {true, false}) {
        SCOPED_TRACE("model " + std::to_string(k) + " target " + std::to_string(target) +
                     (terminal ? " reach quotient" : " p_trap quotient"));
        const std::uint64_t avoid = terminal ? target : 0;
        const MecList mecs = MecList::from(maximal_end_components(m, avoid));
        const ref::Quotient want = ref::build_quotient(m, mecs.to_end_components(), reached,
                                                       target, terminal);
        detail::Quotient first;
        for (const int threads : {1, 2, 4}) {
          const detail::Quotient got =
              detail::build_quotient(m, mecs, reached, target, terminal, pooled_options(threads));
          ASSERT_EQ(got.num_nodes, want.num_nodes);
          ASSERT_EQ(got.node_of, want.node_of);
          ASSERT_EQ(got.mec_node, want.mec_node);
          ASSERT_EQ(got.initial, want.initial);
          if (threads == 1) {
            first = got;
            continue;
          }
          EXPECT_EQ(got.act_off, first.act_off);
          EXPECT_EQ(got.out_off, first.out_off);
          EXPECT_EQ(got.dest, first.dest);
          EXPECT_EQ(got.prob, first.prob);
        }
      }
    }
  }
}

// --- The compact quotient. --------------------------------------------------

// One MEC {s0, s1} (P2 cycles between them) whose four external actions
// are two distinct outcome lists, each seen twice; the lists differ only in
// their probabilities. Deduplication keeps the first occurrence of each, in
// (member ascending, philosopher) order.
TEST(QuantQuotient, DedupKeepsFirstOccurrenceAndRespectsProbabilities) {
  const Model m = hand_model(3,
                             {{{0.25f, 2}, {0.75f, 3}},  // s0, P0
                              {{0.5f, 2}, {0.5f, 3}},    // s0, P1
                              {{1.0f, 1}},               // s0, P2: into s1
                              {{0.5f, 2}, {0.5f, 3}},    // s1, P0: repeats s0/P1
                              {{0.25f, 2}, {0.75f, 3}},  // s1, P1: repeats s0/P0
                              {{1.0f, 0}},               // s1, P2: back to s0
                              {{1.0f, 2}}, {{1.0f, 2}}, {{1.0f, 2}},   // s2: eats
                              {{1.0f, 3}}, {{1.0f, 3}}, {{1.0f, 3}}},  // s3: stuck
                             {0, 0, 0b001, 0});
  const std::vector<bool> reached = reachable_states(m);
  const auto mecs = maximal_end_components(m, ~std::uint64_t{0});
  const detail::Quotient q =
      detail::build_quotient(m, MecList::from(mecs), reached, ~std::uint64_t{0}, true,
                             QuantOptions{});
  const std::uint32_t node = q.node_of[0];
  ASSERT_EQ(q.node_of[1], node);
  ASSERT_EQ(q.act_off[node + 1] - q.act_off[node], 2u);
  const std::uint32_t first = q.act_off[node];
  EXPECT_EQ(q.prob[q.out_off[first]], 0.25f);  // s0/P0 first, then s0/P1
  EXPECT_EQ(q.prob[q.out_off[first + 1]], 0.5f);
  EXPECT_EQ(q.dest[q.out_off[first]], detail::kGoal);
  EXPECT_EQ(q.dest[q.out_off[first] + 1], q.node_of[3]);
  // The better action is the second distinct one: P(eat) = 1/2.
  expect_point(analyze(m).p_max, 0.5);
}

TEST(QuantQuotient, RefusesOffsetOverflow) {
  // 32-bit offsets index count + 1 entries, so the largest CSR holds
  // 2^32 - 2 actions or outcomes.
  EXPECT_NO_THROW(detail::check_csr_offsets(0, "quotient actions"));
  EXPECT_NO_THROW(detail::check_csr_offsets(0xFFFFFFFEu, "quotient actions"));
  EXPECT_THROW(detail::check_csr_offsets(0xFFFFFFFFu, "quotient actions"), PreconditionError);
  try {
    detail::check_csr_offsets(std::size_t{1} << 32, "quotient outcomes");
    FAIL() << "no throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
    EXPECT_NE(what.find("quotient outcomes"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gdp::mdp::quant
