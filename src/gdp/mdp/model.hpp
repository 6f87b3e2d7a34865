// Explicit-state MDP extracted from (algorithm x topology).
//
// The paper's §2 computation model is a probabilistic automaton in the sense
// of Segala & Lynch: nondeterminism (which philosopher steps) is resolved by
// an adversary, randomness by the algorithm's draws. For finite systems in
// the all-hungry setting this is a finite MDP whose actions are philosopher
// ids: exploring it lets us *decide* the paper's progress statements
// mechanically instead of only sampling runs (see fair_progress.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/graph/topology.hpp"

namespace gdp::mdp {

namespace detail {
class LevelExplorer;
}  // namespace detail
namespace store {
class ChunkedModel;
}  // namespace store

using StateId = std::uint32_t;

/// A MEC decomposition in flat form (defined in end_components.hpp).
struct MecList;

namespace detail {

/// What a memoized decomposition depends on besides the model: the avoid
/// mask and the options that pick its execution (the effective worker
/// count and the two sequential cut-offs). The components themselves do
/// not depend on the last three, but keying on them keeps a comparison
/// across thread counts or thresholds a comparison of fresh runs.
struct MecKey {
  std::uint64_t avoid_set = 0;
  unsigned threads = 1;
  std::size_t seq_mec_threshold = 0;
  std::size_t seq_scc_region = 0;
  bool operator==(const MecKey&) const = default;
};

/// A model's memo of MEC decompositions, filled lazily by the verdict
/// entry points (par/end_components_impl.hpp). Guarded by a mutex, so
/// verdicts may run on one model from several threads at once. A copy or a
/// move starts empty, and an assigned-to memo forgets its entries: entries
/// describe the model they were computed on, and recomputing one is always
/// correct.
class MecMemo {
 public:
  MecMemo() = default;
  MecMemo(const MecMemo&) noexcept {}
  MecMemo& operator=(const MecMemo& rhs) noexcept;

  /// The entry under `key`, or null.
  std::shared_ptr<const MecList> find(const MecKey& key) const;
  /// Keeps `mecs` under `key` unless that would lift the memo's total past
  /// `budget` bytes.
  void keep(const MecKey& key, std::shared_ptr<const MecList> mecs, std::size_t budget);
  /// Bytes held by the kept entries.
  std::size_t bytes() const;

 private:
  mutable common::Mutex mu_;
  std::vector<std::pair<MecKey, std::shared_ptr<const MecList>>> entries_ GDP_GUARDED_BY(mu_);
  std::size_t bytes_ GDP_GUARDED_BY(mu_) = 0;
};

}  // namespace detail

struct Outcome {
  float prob = 0.0f;
  StateId next = 0;
};

/// CSR-packed MDP. Row (state s, philosopher p) holds the probabilistic
/// outcomes of scheduling p in s; every state has exactly `num_phils` rows.
///
/// Limit: at most 64 philosophers. `eaters()` and every target/avoid set
/// are single 64-bit masks (bit p = philosopher p); beyond 64 philosophers
/// the masks would silently alias, so construction refuses instead
/// (GDP_CHECK in Model::build and in the explorers). Lifting the limit
/// means widening the masks end to end — model, end components, quant.
class Model {
 public:
  int num_phils() const { return num_phils_; }
  std::size_t num_states() const { return eaters_.size(); }
  StateId initial() const { return 0; }

  bool eating(StateId s) const { return eaters_[s] != 0; }

  /// Bitmask of philosophers eating in s (bit p). The paper's E is
  /// eaters(s) != 0; E restricted to a set S is (eaters(s) & S) != 0.
  std::uint64_t eaters(StateId s) const { return eaters_[s]; }

  /// Outcomes of scheduling philosopher p in state s.
  std::pair<const Outcome*, const Outcome*> row(StateId s, int p) const {
    const std::size_t idx = static_cast<std::size_t>(s) * static_cast<std::size_t>(num_phils_) +
                            static_cast<std::size_t>(p);
    return {outcomes_.data() + offsets_[idx], outcomes_.data() + offsets_[idx + 1]};
  }

  /// True if exploration hit the state cap: the model is a prefix, and
  /// states beyond the cap appear as `frontier` states with no rows.
  bool truncated() const { return truncated_; }
  bool frontier(StateId s) const { return frontier_[s]; }

  /// Total number of (state, action) rows, for reporting.
  std::size_t num_rows() const { return num_states() * static_cast<std::size_t>(num_phils_); }
  /// Total number of outcomes over all rows.
  std::size_t num_outcomes() const { return outcomes_.size(); }

  /// True when every state is reachable from the initial one by
  /// construction: set on explored models (every state was discovered from
  /// the initial state), false on Model::build models, which may hold
  /// unreachable states. The verdict and quant paths skip the reachability
  /// sweep when it is set.
  bool all_states_reachable() const { return all_reachable_; }

  /// The memo of MEC decompositions the verdict entry points read through
  /// (see detail::MecMemo); entries never exceed num_outcomes() *
  /// sizeof(Outcome) bytes in total.
  detail::MecMemo& mec_memo() const { return mec_memo_; }

  /// Assembles a Model directly from its CSR parts — the hand-built-MDP
  /// entry point for tests and external tooling (the quantitative checker's
  /// unit tests feed 2-3-state systems with known values through this).
  /// `offsets` must have num_states * num_phils + 1 monotone entries ending
  /// at outcomes.size(); frontier states must have empty rows; every
  /// outcome's `next` must be a valid state id. Throws PreconditionError on
  /// violations.
  static Model build(int num_phils, std::vector<std::uint64_t> offsets,
                     std::vector<Outcome> outcomes, std::vector<std::uint64_t> eaters,
                     std::vector<bool> frontier, bool truncated = false);

 private:
  /// The shared level-synchronous explorer (gdp/mdp/level_explore.hpp)
  /// builds the CSR arrays in place and re-seeds from them on resume.
  friend class detail::LevelExplorer;
  /// materialize() carries the store's reachability mark over.
  friend class store::ChunkedModel;

  int num_phils_ = 0;
  std::vector<std::uint64_t> offsets_;  // (num_states * num_phils) + 1
  std::vector<Outcome> outcomes_;
  std::vector<std::uint64_t> eaters_;
  std::vector<bool> frontier_;
  bool truncated_ = false;
  bool all_reachable_ = false;
  mutable detail::MecMemo mec_memo_;
};

/// Level-synchronous breadth-first exploration from the algorithm's initial
/// state (all philosophers thinking). The `max_states` cap applies at BFS
/// level boundaries: a run never stops mid-level, so a capped model is a
/// pure function of (algorithm, topology, max_states) — identical to the
/// parallel par::explore at every thread count — and its unexpanded
/// frontier states (flagged on the model) are always the id tail.
///
/// Requires ThinkMode::kHungry (the proofs' all-hungry setting) so the MDP
/// stays finite and E-avoidance is meaningful.
Model explore(const algos::Algorithm& algo, const graph::Topology& t,
              std::size_t max_states = 2'000'000);

}  // namespace gdp::mdp
