// The parallel model-checking engine's core contract: gdp::mdp::par
// produces BIT-IDENTICAL results to the sequential engine — same Model
// (state numbering, CSR offsets, outcome bytes, eater masks, frontier
// flags), same StateIndex, same end components, same verdicts — for every
// thread count, including oversubscribed pools with stealing in play.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/level_explore.hpp"
#include "gdp/mdp/par/par.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/sim/state.hpp"

namespace gdp::mdp {
namespace {

std::vector<int> thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

/// Field-by-field model equality through the public API; float payloads
/// compared via memcmp so NaN or signed-zero drift would also be caught.
void expect_models_bit_identical(const Model& seq, const Model& par_model, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(seq.num_states(), par_model.num_states());
  ASSERT_EQ(seq.num_phils(), par_model.num_phils());
  EXPECT_EQ(seq.truncated(), par_model.truncated());
  for (StateId s = 0; s < seq.num_states(); ++s) {
    ASSERT_EQ(seq.eaters(s), par_model.eaters(s)) << "state " << s;
    ASSERT_EQ(seq.frontier(s), par_model.frontier(s)) << "state " << s;
    for (int p = 0; p < seq.num_phils(); ++p) {
      const auto [sb, se] = seq.row(s, p);
      const auto [pb, pe] = par_model.row(s, p);
      ASSERT_EQ(se - sb, pe - pb) << "row (" << s << ", " << p << ")";
      for (const Outcome *so = sb, *po = pb; so != se; ++so, ++po) {
        ASSERT_EQ(so->next, po->next) << "row (" << s << ", " << p << ")";
        ASSERT_EQ(std::memcmp(&so->prob, &po->prob, sizeof(float)), 0)
            << "row (" << s << ", " << p << ") prob " << so->prob << " vs " << po->prob;
      }
    }
  }
}

void expect_mecs_identical(const std::vector<EndComponent>& seq,
                           const std::vector<EndComponent>& par_mecs) {
  ASSERT_EQ(seq.size(), par_mecs.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].states, par_mecs[i].states) << "component " << i;
    EXPECT_EQ(seq[i].phil_mask, par_mecs[i].phil_mask) << "component " << i;
  }
}

void expect_results_identical(const FairProgressResult& seq, const FairProgressResult& par_r) {
  EXPECT_EQ(seq.verdict, par_r.verdict);
  EXPECT_EQ(seq.avoid_set, par_r.avoid_set);
  EXPECT_EQ(seq.num_states, par_r.num_states);
  EXPECT_EQ(seq.num_mecs, par_r.num_mecs);
  EXPECT_EQ(seq.num_fair_mecs, par_r.num_fair_mecs);
  EXPECT_EQ(seq.witness_size, par_r.witness_size);
  EXPECT_EQ(seq.witness_state.has_value(), par_r.witness_state.has_value());
  if (seq.witness_state) EXPECT_EQ(*seq.witness_state, *par_r.witness_state);
}

/// The full-pipeline equivalence check for one (algorithm, topology, cap).
void expect_par_equals_seq(const std::string& algo_name, const graph::Topology& t,
                           std::size_t max_states = 2'000'000) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);

  StateIndex seq_index;
  const Model seq = explore_indexed(*algo, t, max_states, seq_index);
  const auto seq_mecs = maximal_end_components(seq);
  const auto seq_progress = check_fair_progress(seq);

  for (const int threads : thread_counts()) {
    par::CheckOptions opts;
    opts.threads = threads;
    opts.max_states = max_states;
    // Force the parallel MEC machinery on even for the small test models
    // (the production default hands tiny fragments to the sequential path).
    opts.seq_mec_threshold = 1;
    opts.seq_scc_region = 32;

    StateIndex par_index;
    const Model par_model = par::explore_indexed(*algo, t, par_index, opts);
    expect_models_bit_identical(seq, par_model, threads);

    ASSERT_EQ(seq_index.size(), par_index.size());
    // gdp-lint: allow(unordered-iteration) — pure membership check; every key is
    // looked up independently, no result bit depends on hash order
    for (const auto& [key, id] : seq_index) {
      const auto it = par_index.find(key);
      ASSERT_NE(it, par_index.end());
      EXPECT_EQ(it->second, id);
    }

    expect_mecs_identical(seq_mecs, par::maximal_end_components(par_model, ~std::uint64_t{0}, opts));
    expect_results_identical(seq_progress, par::check_fair_progress(par_model, ~std::uint64_t{0}, opts));
    for (PhilId v = 0; v < t.num_phils(); ++v) {
      expect_results_identical(check_lockout_freedom(seq, v),
                               par::check_lockout_freedom(par_model, v, opts));
    }
  }
}

/// Lighter variant for six-figure-state models (the full sweep would take
/// minutes on small CI machines): one parallel run against one sequential
/// run, model compared bit for bit, one MEC + verdict comparison.
void expect_par_equals_seq_light(const std::string& algo_name, const graph::Topology& t,
                                 bool compare_mecs = true) {
  SCOPED_TRACE(algo_name + " on " + t.name());
  const auto algo = algos::make_algorithm(algo_name);
  const Model seq = explore(*algo, t);

  par::CheckOptions opts;
  opts.threads = 4;
  opts.seq_mec_threshold = 1;
  opts.seq_scc_region = 4'096;
  const Model par_model = par::explore(*algo, t, opts);
  expect_models_bit_identical(seq, par_model, opts.threads);
  if (compare_mecs) {
    expect_mecs_identical(maximal_end_components(seq),
                          par::maximal_end_components(par_model, ~std::uint64_t{0}, opts));
    expect_results_identical(check_fair_progress(seq),
                             par::check_fair_progress(par_model, ~std::uint64_t{0}, opts));
  }
}

// --- Topologies x algorithms x thread counts. ---

TEST(ParExplore, Lr1Ring3) { expect_par_equals_seq("lr1", graph::classic_ring(3)); }
TEST(ParExplore, Lr1Ring4) { expect_par_equals_seq("lr1", graph::classic_ring(4)); }
TEST(ParExplore, Lr1RingWithPendant) {
  expect_par_equals_seq("lr1", graph::ring_with_pendant(3));
}
TEST(ParExplore, Lr2ParallelArcs3) { expect_par_equals_seq("lr2", graph::parallel_arcs(3)); }
TEST(ParExplore, Gdp1Ring3) { expect_par_equals_seq("gdp1", graph::classic_ring(3)); }
TEST(ParExplore, Gdp1ParallelArcs3) {
  expect_par_equals_seq("gdp1", graph::parallel_arcs(3), 3'000'000);
}
TEST(ParExplore, TicketBaselineFig1a) { expect_par_equals_seq("ticket", graph::fig1a()); }

// Six-figure state spaces: the renumbering must stay canonical even when
// the frontier is stolen back and forth for hundreds of thousands of
// expansions (gdp2's guest books, lr2 on a 4-ring).
TEST(ParExplore, Gdp2Ring3Large) { expect_par_equals_seq_light("gdp2", graph::classic_ring(3)); }
TEST(ParExplore, Lr2Ring4Large) {
  expect_par_equals_seq_light("lr2", graph::classic_ring(4), /*compare_mecs=*/false);
}

// The trap graph: LR1's model has a reachable fair EC (Theorem 1 premise),
// so the equivalence must also hold through a kProgressFails verdict.
TEST(ParExplore, Lr1Fig1aVerdictFails) {
  const auto algo = algos::make_algorithm("lr1");
  const auto seq = check_fair_progress(*algo, graph::fig1a());
  par::CheckOptions opts;
  opts.threads = 4;
  opts.seq_mec_threshold = 1;
  opts.seq_scc_region = 4'096;
  const auto par_r = par::check_fair_progress(*algo, graph::fig1a(), opts);
  EXPECT_EQ(par_r.verdict, Verdict::kProgressFails);
  expect_results_identical(seq, par_r);
}

// Truncated exploration: the cap applies at BFS level boundaries, so a
// capped model is a pure function of (algorithm, topology, cap) — both
// explorers run the same level-synchronous engine and stay bit-identical,
// including the frontier flags and the truncated() bit, with no sequential
// fallback anywhere.
TEST(ParExplore, CappedLevelSyncBitIdentical) {
  expect_par_equals_seq("lr1", graph::fig1a(), 500);
}
TEST(ParExplore, CappedLevelSyncMidBfs) {
  expect_par_equals_seq("gdp1", graph::classic_ring(3), 5'000);
  expect_par_equals_seq("ticket", graph::fig1a(), 2'000);
  expect_par_equals_seq("lr2", graph::parallel_arcs(3), 9'999);
}

// The exact capped state counts, pinned as literals: the historical
// explorer checked the cap only at its loop top, so a single expansion
// could overshoot max_states by up to n * branches states and the capped
// count depended on traversal order. Level-synchronous truncation stops at
// a level boundary instead — the count may exceed the cap by at most one
// level's discoveries, every state below num_expanded is fully expanded,
// the frontier is exactly the id tail, and mdp::explore and par::explore
// agree on the number at every thread count.
TEST(ParExplore, CappedStateCountsPinnedAcrossPaths) {
  struct Case {
    const char* algo;
    graph::Topology t;
    std::size_t cap;
    std::size_t states;    // total states in the capped model
    std::size_t expanded;  // states with materialized rows (the id prefix)
  };
  const Case cases[] = {{"lr1", graph::fig1a(), 500, 1'065, 393},
                        {"gdp1", graph::classic_ring(3), 5'000, 5'815, 4'249},
                        {"lr2", graph::parallel_arcs(3), 9'999, 10'520, 9'242}};
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name() + " cap " + std::to_string(c.cap));
    const auto algo = algos::make_algorithm(c.algo);
    const Model seq = explore(*algo, c.t, c.cap);
    ASSERT_TRUE(seq.truncated());
    EXPECT_GE(seq.num_states(), c.cap);  // the cap is a floor for truncation, never mid-level
    EXPECT_EQ(seq.num_states(), c.states);
    // The unexpanded frontier is the contiguous id tail.
    for (StateId s = 0; s < seq.num_states(); ++s) {
      ASSERT_EQ(seq.frontier(s), s >= c.expanded) << "state " << s;
    }
    for (const int threads : {1, 2, hw}) {
      par::CheckOptions opts;
      opts.threads = threads;
      opts.max_states = c.cap;
      const Model par_model = par::explore(*algo, c.t, opts);
      EXPECT_EQ(par_model.num_states(), c.states) << "threads=" << threads;
      expect_models_bit_identical(seq, par_model, threads);
    }
  }
}

// --- Epilogue pins: the renumbering/assembly and reachable-state sweeps
// run on the pool, so cap-truncated and subset-mask results are re-checked
// byte-for-byte against the sequential engine at every thread count. ---

TEST(ParExplore, EpilogueTruncationPinsAcrossThreadCounts) {
  struct Case {
    const char* algo;
    graph::Topology t;
    std::size_t cap;
  };
  const Case cases[] = {{"gdp2", graph::classic_ring(3), 20'000},
                        {"lr2", graph::parallel_arcs(4), 12'000},
                        {"gdp1", graph::ring_with_pendant(3), 8'000}};
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algo) + " on " + c.t.name() + " cap " + std::to_string(c.cap));
    const auto algo = algos::make_algorithm(c.algo);
    StateIndex seq_index;
    const Model seq = explore_indexed(*algo, c.t, c.cap, seq_index);
    ASSERT_TRUE(seq.truncated());
    for (const int threads : {1, 2, hw}) {
      par::CheckOptions opts;
      opts.threads = threads;
      opts.max_states = c.cap;
      StateIndex par_index;
      const Model par_model = par::explore_indexed(*algo, c.t, par_index, opts);
      expect_models_bit_identical(seq, par_model, threads);
      ASSERT_EQ(seq_index.size(), par_index.size());
      // gdp-lint: allow(unordered-iteration) — membership check only; order-free
      for (const auto& [key, id] : seq_index) {
        const auto it = par_index.find(key);
        ASSERT_NE(it, par_index.end());
        EXPECT_EQ(it->second, id);
      }
    }
  }
}

TEST(ParExplore, EpilogueSubsetMaskPinsAcrossThreadCounts) {
  const auto t = graph::ring_with_pendant(3);
  const auto algo = algos::make_algorithm("lr1");
  const Model seq = explore(*algo, t);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::CheckOptions opts;
    opts.threads = threads;
    opts.seq_mec_threshold = 1;  // force the parallel MEC + reachable sweep
    opts.seq_scc_region = 64;
    const Model par_model = par::explore(*algo, t, opts);
    expect_models_bit_identical(seq, par_model, threads);
    for (const std::uint64_t mask : {std::uint64_t{0b0111}, std::uint64_t{0b1000},
                                     ~std::uint64_t{0}}) {
      expect_results_identical(check_fair_progress(seq, mask),
                               par::check_fair_progress(par_model, mask, opts));
    }
  }
}

TEST(ParExplore, ParallelReachableSweepMatchesSequential) {
  // Directly pin par::reachable_states (used by every parallel verdict)
  // against the sequential sweep, with the thresholds forced low enough
  // that the level-synchronous BFS actually fans out.
  const auto algo = algos::make_algorithm("gdp2");
  const Model model = explore(*algo, graph::classic_ring(3));
  const auto seq = reachable_states(model);
  for (const int threads : {2, 4}) {
    par::CheckOptions opts;
    opts.threads = threads;
    opts.seq_mec_threshold = 1;
    EXPECT_EQ(par::reachable_states(model, opts), seq) << "threads=" << threads;
  }
}

TEST(ParExplore, SubsetMasksAgree) {
  const auto algo = algos::make_algorithm("lr1");
  const Model seq = explore(*algo, graph::ring_with_pendant(3));
  par::CheckOptions opts;
  opts.threads = 4;
  opts.seq_mec_threshold = 1;
  opts.seq_scc_region = 256;
  const Model par_model = par::explore(*algo, graph::ring_with_pendant(3), opts);
  // Progress wrt the ring philosophers H = {P0..P2} fails (Theorem 1);
  // global progress is certified — both through the parallel pipeline.
  expect_results_identical(check_fair_progress(seq, 0b0111),
                           par::check_fair_progress(par_model, 0b0111, opts));
  expect_results_identical(check_fair_progress(seq),
                           par::check_fair_progress(par_model, ~std::uint64_t{0}, opts));
  EXPECT_EQ(par::check_fair_progress(par_model, 0b0111, opts).verdict, Verdict::kProgressFails);
  EXPECT_EQ(par::check_fair_progress(par_model, ~std::uint64_t{0}, opts).verdict,
            Verdict::kProgressCertain);
}

TEST(ParExplore, RequiresHungryMode) {
  const auto algo = algos::make_algorithm(
      "lr1", algos::AlgoConfig{.think = algos::ThinkMode::kCoin, .think_coin = 0.5});
  par::CheckOptions opts;
  opts.threads = 2;
  EXPECT_THROW(par::explore(*algo, graph::classic_ring(3), opts), PreconditionError);
}

TEST(ParExplore, DefaultOptionsUseSequentialFallbacksOnTinyModels) {
  // Default thresholds: a few-hundred-state model routes through the
  // sequential MEC path; the result must of course still be identical.
  const auto algo = algos::make_algorithm("lr1");
  const Model seq = explore(*algo, graph::classic_ring(3));
  par::CheckOptions opts;
  opts.threads = 4;
  const Model par_model = par::explore(*algo, graph::classic_ring(3), opts);
  expect_models_bit_identical(seq, par_model, 4);
  expect_mecs_identical(maximal_end_components(seq),
                        par::maximal_end_components(par_model, ~std::uint64_t{0}, opts));
}

// --- Random MDPs: the parallel decomposition against the sequential one
// and a brute-force oracle. ---
//
// The generator plants the shapes each phase of the parallel
// decomposition is built for: a long DAG chain of small SCCs (what the
// trim peels and the re-split's common case), one giant SCC (what Tarjan
// is left with), actions with one outcome leaving their SCC (the
// refinement's reason to exist), empty rows, eating states and
// unexpanded frontier states. State ids are shuffled so no phase can lean
// on id order.

struct RandomMdpShape {
  std::size_t states = 0;
  int phils = 3;
  double giant_share = 0.3;     // states in the planted giant SCC
  std::size_t chain_group = 3;  // max states per small SCC of the chain
  double frontier_prob = 0.02;
};

Model random_mdp(std::uint64_t seed, const RandomMdpShape& shape) {
  std::mt19937_64 rng(seed);
  const std::size_t n = shape.states;
  const int phils = shape.phils;
  auto uniform = [&](std::size_t bound) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(rng));
  };
  auto chance = [&](double p) { return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p; };

  std::vector<StateId> id(n);  // planted position -> state id
  for (std::size_t i = 0; i < n; ++i) id[i] = static_cast<StateId>(i);
  std::shuffle(id.begin(), id.end(), rng);

  // Planted groups over positions: [0, giant) is the giant SCC, the rest a
  // chain of small groups, each feeding the next.
  const std::size_t giant = static_cast<std::size_t>(static_cast<double>(n) * shape.giant_share);
  std::vector<std::size_t> group_begin{0};
  if (giant > 0) group_begin.push_back(giant);
  while (group_begin.back() < n) {
    group_begin.push_back(std::min(n, group_begin.back() + 1 + uniform(shape.chain_group)));
  }
  std::vector<std::size_t> group_of(n);
  for (std::size_t g = 0; g + 1 < group_begin.size(); ++g) {
    for (std::size_t i = group_begin[g]; i < group_begin[g + 1]; ++i) group_of[i] = g;
  }
  const std::size_t groups = group_begin.size() - 1;

  std::vector<bool> frontier(n, false);
  std::vector<std::uint64_t> eaters(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    frontier[id[i]] = i > 0 && chance(shape.frontier_prob);
    if (chance(0.3)) eaters[id[i]] = uniform(std::size_t{1} << phils);
  }

  std::vector<std::vector<Outcome>> rows(n * static_cast<std::size_t>(phils));
  for (std::size_t i = 0; i < n; ++i) {
    if (frontier[id[i]]) continue;
    const std::size_t g = group_of[i];
    const std::size_t lo = group_begin[g], hi = group_begin[g + 1];
    auto in_group = [&] { return id[lo + uniform(hi - lo)]; };
    for (int p = 0; p < phils; ++p) {
      std::vector<StateId> targets;
      const std::size_t kind = uniform(10);
      if (kind == 0) {
        // empty row: p cannot move here
      } else if (kind <= 4) {
        // cycle step inside the group (the giant SCC also gets random chords)
        targets.push_back(id[i + 1 < hi ? i + 1 : lo]);
        if (g == 0 && giant > 0 && chance(0.3)) targets.push_back(in_group());
      } else if (kind <= 6) {
        // down the chain
        targets.push_back(g + 1 < groups ? id[group_begin[g + 1] + uniform(group_begin[g + 2] -
                                                                             group_begin[g + 1])]
                                         : in_group());
      } else if (kind <= 8) {
        // half of these also leave the group with their second outcome
        targets.push_back(in_group());
        if (chance(0.5)) targets.push_back(id[uniform(n)]);
      } else {
        for (std::size_t k = 1 + uniform(3); k > 0; --k) targets.push_back(id[uniform(n)]);
      }
      std::vector<Outcome>& row = rows[static_cast<std::size_t>(id[i]) * phils + p];
      for (const StateId t : targets) {
        row.push_back(Outcome{1.0f / static_cast<float>(targets.size()), t});
      }
    }
  }
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    outcomes.insert(outcomes.end(), row.begin(), row.end());
    offsets.push_back(outcomes.size());
  }
  const bool truncated = std::find(frontier.begin(), frontier.end(), true) != frontier.end();
  return Model::build(phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                      std::move(frontier), truncated);
}

/// MECs straight from the definition, for models of at most 12 states:
/// every candidate subset is tested for closure (each member keeps an
/// action with all outcomes inside) and strong connectivity under those
/// actions; the maximal ones, ordered by smallest member, are the MECs.
std::vector<EndComponent> brute_force_mecs(const Model& model, std::uint64_t avoid_set) {
  const std::size_t n = model.num_states();
  GDP_CHECK(n <= 12);
  std::uint32_t candidates = 0;
  for (StateId s = 0; s < n; ++s) {
    if ((model.eaters(s) & avoid_set) == 0 && !model.frontier(s)) candidates |= 1u << s;
  }
  auto inside_actions = [&](StateId s, std::uint32_t set) {
    std::uint64_t mask = 0;
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [begin, end] = model.row(s, p);
      if (begin == end) continue;
      bool inside = true;
      for (const Outcome* o = begin; o != end; ++o) inside = inside && ((set >> o->next) & 1);
      if (inside) mask |= std::uint64_t{1} << p;
    }
    return mask;
  };
  auto is_end_component = [&](std::uint32_t set) {
    StateId first = 0;
    while (!((set >> first) & 1)) ++first;
    // Reachability from `first` both ways under the inside actions.
    std::uint32_t fw = 1u << first, bw = 1u << first;
    for (bool grew = true; grew;) {
      grew = false;
      for (StateId s = 0; s < n; ++s) {
        if (!((set >> s) & 1)) continue;
        const std::uint64_t acts = inside_actions(s, set);
        if (acts == 0) return false;
        for (int p = 0; p < model.num_phils(); ++p) {
          if (!((acts >> p) & 1)) continue;
          const auto [begin, end] = model.row(s, p);
          for (const Outcome* o = begin; o != end; ++o) {
            if (((fw >> s) & 1) && !((fw >> o->next) & 1)) {
              fw |= 1u << o->next;
              grew = true;
            }
            if (((bw >> o->next) & 1) && !((bw >> s) & 1)) {
              bw |= 1u << s;
              grew = true;
            }
          }
        }
      }
    }
    return fw == set && bw == set;
  };
  std::vector<std::uint32_t> ecs;
  for (std::uint32_t set = 1; set < (1u << n); ++set) {
    if ((set & candidates) == set && is_end_component(set)) ecs.push_back(set);
  }
  std::vector<std::uint32_t> maximal;
  for (const std::uint32_t a : ecs) {
    const bool dominated = std::any_of(ecs.begin(), ecs.end(), [&](std::uint32_t b) {
      return b != a && (a & b) == a;
    });
    if (!dominated) maximal.push_back(a);
  }
  std::sort(maximal.begin(), maximal.end(), [](std::uint32_t a, std::uint32_t b) {
    return std::countr_zero(a) < std::countr_zero(b);
  });
  std::vector<EndComponent> mecs;
  for (const std::uint32_t set : maximal) {
    EndComponent mec;
    for (StateId s = 0; s < n; ++s) {
      if (!((set >> s) & 1)) continue;
      mec.states.push_back(s);
      mec.phil_mask |= inside_actions(s, set);
    }
    mecs.push_back(std::move(mec));
  }
  return mecs;
}

std::vector<std::uint64_t> masks_for(int phils) {
  std::vector<std::uint64_t> masks{~std::uint64_t{0}, 0};
  for (int p = 0; p < phils; ++p) masks.push_back(std::uint64_t{1} << p);
  return masks;
}

std::vector<int> thread_counts_with_three() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts{1, 2, 3, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

TEST(RandomMdp, TinyModelsMatchTheBruteForceOracle) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    RandomMdpShape shape;
    shape.states = 2 + seed % 11;
    shape.phils = 2 + static_cast<int>(seed % 2);
    shape.giant_share = (seed % 3) * 0.25;
    shape.frontier_prob = 0.1;
    const Model model = random_mdp(seed, shape);
    for (const std::uint64_t mask : masks_for(shape.phils)) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " mask=" + std::to_string(mask));
      const auto oracle = brute_force_mecs(model, mask);
      expect_mecs_identical(oracle, maximal_end_components(model, mask));
      for (const int threads : {2, 4}) {
        par::CheckOptions opts;
        opts.threads = threads;
        opts.seq_mec_threshold = 1;
        opts.seq_scc_region = 1;
        expect_mecs_identical(oracle, par::maximal_end_components(model, mask, opts));
      }
    }
  }
}

TEST(RandomMdp, ParallelMatchesSequentialAcrossThreadCountsAndRegions) {
  struct Case {
    std::uint64_t seed;
    std::size_t states;
    double giant_share;
    std::size_t chain_group;
  };
  // Sizes reach past one 4,096-state range so waves and passes run as
  // pool tasks.
  for (const Case c : {Case{1, 300, 0.0, 2}, Case{2, 2'000, 0.5, 3}, Case{3, 12'000, 0.6, 4},
                       Case{4, 30'000, 0.7, 3}, Case{5, 20'000, 0.0, 6}}) {
    RandomMdpShape shape;
    shape.states = c.states;
    shape.giant_share = c.giant_share;
    shape.chain_group = c.chain_group;
    const Model model = random_mdp(c.seed, shape);
    for (const std::uint64_t mask : masks_for(shape.phils)) {
      const auto seq = maximal_end_components(model, mask);
      for (const int threads : thread_counts_with_three()) {
        for (const std::size_t region : {std::size_t{1}, std::size_t{16}, std::size_t{1'024}}) {
          SCOPED_TRACE("seed=" + std::to_string(c.seed) + " mask=" + std::to_string(mask) +
                       " threads=" + std::to_string(threads) + " region=" + std::to_string(region));
          par::CheckOptions opts;
          opts.threads = threads;
          opts.seq_mec_threshold = 1;
          opts.seq_scc_region = region;
          expect_mecs_identical(seq, par::maximal_end_components(model, mask, opts));
        }
      }
    }
  }
}

TEST(RandomMdp, EveryDecompositionPhaseRuns) {
  // The cross-check above only means something if the planted shapes
  // actually drive the trim, Tarjan on a trimmed block and the re-split;
  // the timing-plane counters say which ran.
  RandomMdpShape shape;
  shape.states = 30'000;
  shape.giant_share = 0.7;
  const Model model = random_mdp(4, shape);
  obs::set_enabled(true);
  obs::Registry::global().reset();
  par::CheckOptions opts;
  opts.threads = 4;
  opts.seq_mec_threshold = 1;
  opts.seq_scc_region = 16;
  const auto mecs = par::maximal_end_components(model, 0, opts);
  auto& registry = obs::Registry::global();
  const auto counter = [&](const char* name) {
    return registry.counter(name, obs::Plane::kTiming).value();
  };
  EXPECT_GT(counter("mec.trimmed_states"), 0u);
  EXPECT_GT(counter("mec.tarjan_regions"), 0u);
  EXPECT_GT(counter("mec.resplit_blocks"), 0u);
  EXPECT_GT(counter("mec.refinement_rounds"), 1u);
  obs::set_enabled(false);
  obs::Registry::global().reset();
  expect_mecs_identical(maximal_end_components(model, 0), mecs);
}

TEST(ParMec, SixFigureModelEveryMaskAtDefaultThresholds) {
  // Production thresholds on a model far above seq_mec_threshold: the
  // masks the verdicts and the quantitative checker decompose (~0 for
  // progress, 0 for p_trap, every singleton for lockout-freedom).
  const auto algo = algos::make_algorithm("gdp2");
  par::CheckOptions opts;
  opts.threads = 4;
  const Model model = par::explore(*algo, graph::classic_ring(3), opts);
  ASSERT_GE(model.num_states(), 100'000u);
  for (const std::uint64_t mask : masks_for(model.num_phils())) {
    SCOPED_TRACE("mask=" + std::to_string(mask));
    expect_mecs_identical(maximal_end_components(model, mask),
                          par::maximal_end_components(model, mask, opts));
  }
}

// --- The parallel interner against a reference interner. ---
//
// The reference is the historical sequential explorer: one
// std::unordered_map from packed key to id, filled in (state, philosopher,
// branch) order, level by level with the same level-boundary cap. The
// explorer's parallel deterministic intern must reproduce its keys, eater
// masks, CSR offsets and outcome bytes exactly, at every thread count.

struct ReferenceModel {
  std::vector<std::uint64_t> keys;  // key_words() words per state
  std::vector<std::uint64_t> eaters;
  std::vector<std::uint64_t> offsets{0};  // expanded states' rows only
  std::vector<Outcome> outcomes;
  std::size_t expanded = 0;
};

ReferenceModel reference_explore(const algos::Algorithm& algo, const graph::Topology& t,
                                 std::size_t max_states) {
  const KeyCodec codec(algo, t);
  const std::size_t kw = codec.key_words();
  ReferenceModel ref;
  std::unordered_map<PackedKey, StateId, PackedKeyHash> index;
  auto intern = [&](const sim::SimState& state) {
    const PackedKey key = codec.encode(state);
    const auto [it, inserted] = index.try_emplace(key, static_cast<StateId>(ref.eaters.size()));
    if (inserted) {
      ref.keys.insert(ref.keys.end(), key.data(), key.data() + kw);
      ref.eaters.push_back(sim::eater_mask(state));
    }
    return it->second;
  };
  intern(algo.initial_state(t));
  while (ref.expanded < ref.eaters.size() && ref.eaters.size() < max_states) {
    const std::size_t level_end = ref.eaters.size();
    for (std::size_t s = ref.expanded; s < level_end; ++s) {
      PackedKey key;
      key.assign(ref.keys.data() + s * kw, kw);
      const sim::SimState state = codec.decode(key);
      for (PhilId p = 0; p < t.num_phils(); ++p) {
        for (const sim::Branch& b : algo.step(t, state, p)) {
          const StateId next = intern(b.next);
          ref.outcomes.push_back(Outcome{static_cast<float>(b.prob), next});
        }
        ref.offsets.push_back(ref.outcomes.size());
      }
    }
    ref.expanded = level_end;
  }
  return ref;
}

/// Explores with the level explorer at `threads` and compares every array
/// byte for byte against `ref`.
void expect_matches_reference(const algos::Algorithm& algo, const graph::Topology& t,
                              std::size_t max_states, int threads, const ReferenceModel& ref) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  detail::LevelExplorer explorer(algo, t);
  explorer.run(max_states, threads);
  std::vector<std::uint64_t> keys;
  const Model model = explorer.take_model(nullptr, &keys);
  ASSERT_EQ(model.num_states(), ref.eaters.size());
  ASSERT_EQ(keys, ref.keys);
  const std::size_t n = static_cast<std::size_t>(t.num_phils());
  const Outcome* base = model.row(0, 0).first;
  for (StateId s = 0; s < model.num_states(); ++s) {
    ASSERT_EQ(model.eaters(s), ref.eaters[s]) << "state " << s;
    ASSERT_EQ(model.frontier(s), s >= ref.expanded) << "state " << s;
    for (std::size_t p = 0; p < n; ++p) {
      const auto [begin, end] = model.row(s, static_cast<int>(p));
      const std::size_t row = s * n + p;
      const std::uint64_t ref_begin = s < ref.expanded ? ref.offsets[row] : ref.outcomes.size();
      const std::uint64_t ref_end = s < ref.expanded ? ref.offsets[row + 1] : ref.outcomes.size();
      ASSERT_EQ(static_cast<std::uint64_t>(begin - base), ref_begin) << "row " << row;
      ASSERT_EQ(static_cast<std::uint64_t>(end - base), ref_end) << "row " << row;
    }
  }
  ASSERT_EQ(std::memcmp(base, ref.outcomes.data(), ref.outcomes.size() * sizeof(Outcome)), 0);
}

std::vector<int> intern_thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts{1, 2, 3, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

TEST(ParallelIntern, MatchesReferenceInternerAcrossThreadCounts) {
  // Caps keep every model a few thousand states: past kShards * kMinSlots / 2,
  // so every run grows its table mid-run, and several levels wide enough to
  // split into many blocks.
  constexpr std::size_t kCap = 6'000;
  const graph::Topology topologies[] = {graph::classic_ring(4), graph::ring_with_chord(4),
                                        graph::parallel_arcs(4)};
  for (const char* name : {"lr1", "lr2", "gdp1", "gdp2", "ticket"}) {
    const auto algo = algos::make_algorithm(name);
    for (const graph::Topology& t : topologies) {
      SCOPED_TRACE(std::string(name) + " on " + t.name());
      const ReferenceModel ref = reference_explore(*algo, t, kCap);
      for (const int threads : intern_thread_counts()) {
        expect_matches_reference(*algo, t, kCap, threads, ref);
      }
    }
  }
}

TEST(ParallelIntern, TableGrowsMidRun) {
  // Uncapped lr2 on parallel_arcs(3): 17k states, an average shard holds
  // over 4 * kMinSlots keys, so shards rehash in several levels' publish
  // steps.
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::parallel_arcs(3);
  constexpr std::size_t kNoCap = ~std::size_t{0};
  const ReferenceModel ref = reference_explore(*algo, t, kNoCap);
  ASSERT_GT(ref.eaters.size(), 4 * detail::InternTable::kShards * detail::InternTable::kMinSlots);
  for (const int threads : intern_thread_counts()) {
    expect_matches_reference(*algo, t, kNoCap, threads, ref);
  }
}

TEST(ParallelIntern, WideBookKeysSpillPastTheInlineWords) {
  // lr2 on a star: the center fork's guest book needs degree * (1 +
  // bit_width(degree)) bits, so the key outgrows PackedKey's inline words
  // and the arena holds multi-word keys.
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::star(16);
  ASSERT_GT(KeyCodec(*algo, t).key_words(), PackedKey::kInlineWords);
  constexpr std::size_t kCap = 3'000;
  const ReferenceModel ref = reference_explore(*algo, t, kCap);
  for (const int threads : intern_thread_counts()) {
    expect_matches_reference(*algo, t, kCap, threads, ref);
  }
}

TEST(ParallelIntern, InternTableSizeIsAPureFunctionOfItsCounts) {
  detail::InternTable table;
  table.assign(2, {});
  constexpr std::size_t kKeys = 20'000;
  std::vector<std::size_t> per_shard(detail::InternTable::kShards, 0);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const StateId id = table.grow(1);
    ASSERT_EQ(id, i);
    std::uint64_t* key = table.mutable_key(id);
    key[0] = i * 0x9e3779b97f4a7c15ULL;
    key[1] = ~i;
    const std::uint64_t h = key_hash(key, 2);
    ASSERT_EQ(table.find(key, h), detail::kNoState);
    table.insert(id, h);
    ++per_shard[detail::InternTable::shard_of(h)];
  }
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::uint64_t* key = table.key(static_cast<StateId>(i));
    ASSERT_EQ(table.find(key, key_hash(key, 2)), i);
  }
  const std::uint64_t absent[2] = {1, 2};
  EXPECT_EQ(table.find(absent, key_hash(absent, 2)), detail::kNoState);

  // Every shard sits at the smallest power-of-two slot count that keeps
  // its load <= 1/2: the footprint is a function of the counts alone.
  std::size_t slots = 0;
  for (const std::size_t c : per_shard) {
    std::size_t shard_slots = detail::InternTable::kMinSlots;
    while (shard_slots < 2 * c) shard_slots *= 2;
    slots += shard_slots;
  }
  EXPECT_EQ(table.bytes(), kKeys * 2 * sizeof(std::uint64_t) + slots * sizeof(StateId));

  // Re-indexing the same arena reproduces the footprint.
  std::vector<std::uint64_t> arena = table.take_arena();
  detail::InternTable rebuilt;
  rebuilt.assign(2, std::move(arena));
  EXPECT_EQ(rebuilt.bytes(), kKeys * 2 * sizeof(std::uint64_t) + slots * sizeof(StateId));
}

TEST(ParallelIntern, RefusesIdSpaceOverflow) {
  // Ids are 32-bit and kNoState marks empty slots, so the largest run has
  // kNoState states (ids 0 .. kNoState - 1).
  EXPECT_EQ(detail::reserve_id_range(10, 5), 10u);
  EXPECT_EQ(detail::reserve_id_range(detail::kNoState - 5, 5), detail::kNoState - 5);
  EXPECT_THROW(detail::reserve_id_range(detail::kNoState - 5, 6), PreconditionError);
  EXPECT_THROW(detail::reserve_id_range(detail::kNoState, 1), PreconditionError);
  try {
    detail::reserve_id_range(std::size_t{1} << 32, 1);
    FAIL() << "no throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("4294967296"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace gdp::mdp
