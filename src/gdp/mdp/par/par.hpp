// gdp::mdp::par — the parallel MDP model-checking engine.
//
// Parallelizes the whole pipeline behind the paper's mechanical theorem
// checks (explore -> end-component decomposition -> verdict) on the shared
// work-stealing pool (gdp/common/pool.hpp), the same substrate that
// parallelized the sampling side in gdp::exp:
//
//   * explore / explore_indexed — level-synchronous breadth-first
//     state-space construction on the shared engine
//     (gdp/mdp/level_explore.hpp): each BFS level expands in parallel into
//     per-state buffers, successors intern in a sequential in-order
//     epilogue, and the state cap applies at level boundaries. The
//     resulting Model is BIT-IDENTICAL to the sequential mdp::explore for
//     every thread count — same state numbering, same CSR offsets, same
//     outcome bytes — including capped runs, which stay fully parallel
//     (no sequential fallback) and leave their unexpanded frontier as the
//     id tail, resumable via gdp::mdp::store.
//
//   * maximal_end_components — the same MEC refinement fixpoint as the
//     sequential end_components.cpp, with range-task passes over states,
//     large blocks split by a parallel trim and then Tarjan, small blocks
//     by Tarjan as parallel tasks, and later rounds that re-split only the
//     blocks in which an action stopped being usable; small candidate sets
//     fall back to the sequential decomposition outright.
//     Component sets, their order and their philosopher masks are
//     identical to the sequential results.
//
//   * check_fair_progress / check_lockout_freedom — the fair_progress
//     verdicts computed over the parallel pipeline; identical
//     FairProgressResult for every thread count.
//
// Determinism is the contract that makes the parallel engine usable for
// the paper's correctness claims: a verdict produced on 16 workers is the
// same object a single-threaded run certifies.
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/witness.hpp"

namespace gdp::mdp::par {

struct CheckOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). 1 runs the
  /// sequential engines directly (bit-identical by construction).
  int threads = 0;

  /// Exploration state cap, as in mdp::explore: applied at BFS level
  /// boundaries, so capped models are bit-identical to the sequential
  /// explorer's at every thread count (and resumable, see gdp::mdp::store).
  std::size_t max_states = 2'000'000;

  /// Candidate sets smaller than this run the sequential MEC decomposition
  /// (thread spawn + CSR construction cost more than they save).
  std::size_t seq_mec_threshold = 16'384;

  /// Blocks of at most this many states run sequential Tarjan directly,
  /// without the parallel trim.
  std::size_t seq_scc_region = 8'192;
};

/// Parallel breadth-first exploration; bit-identical to
/// mdp::explore(algo, t, options.max_states) at every thread count.
Model explore(const algos::Algorithm& algo, const graph::Topology& t, CheckOptions options = {});

/// As explore(), also returning the encoded-state -> id map (canonical ids,
/// identical to the sequential mdp::explore_indexed map).
Model explore_indexed(const algos::Algorithm& algo, const graph::Topology& t,
                      StateIndex& index_out, CheckOptions options = {});

/// Parallel MEC decomposition of the non-`avoid_set`-eating fragment;
/// identical components (sets, order, philosopher masks) to
/// mdp::maximal_end_components at every thread count.
std::vector<EndComponent> maximal_end_components(const Model& model,
                                                 std::uint64_t avoid_set = ~std::uint64_t{0},
                                                 CheckOptions options = {});

/// Parallel reachable-from-initial sweep (level-synchronous BFS on the
/// pool); the returned set is identical to mdp::reachable_states — the set
/// does not depend on traversal order. Models below seq_mec_threshold run
/// the sequential sweep.
std::vector<bool> reachable_states(const Model& model, CheckOptions options = {});

/// Fair-progress verdict over the parallel MEC decomposition; identical
/// FairProgressResult to mdp::check_fair_progress at every thread count.
FairProgressResult check_fair_progress(const Model& model,
                                       std::uint64_t set_mask = ~std::uint64_t{0},
                                       CheckOptions options = {});

/// Lockout-freedom of `victim` over the parallel pipeline.
FairProgressResult check_lockout_freedom(const Model& model, PhilId victim,
                                         CheckOptions options = {});

/// One-call convenience: parallel explore + parallel check (the parallel
/// analogue of mdp::check_fair_progress(algo, t, max_states, set_mask)).
FairProgressResult check_fair_progress(const algos::Algorithm& algo, const graph::Topology& t,
                                       CheckOptions options = {},
                                       std::uint64_t set_mask = ~std::uint64_t{0});

}  // namespace gdp::mdp::par
