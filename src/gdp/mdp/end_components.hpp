// Maximal end-component (MEC) decomposition of the non-eating fragment.
//
// An end component is a set of states plus, per state, a non-empty set of
// actions such that (i) every probabilistic outcome of a chosen action stays
// inside the set (closure) and (ii) the induced graph is strongly connected.
// Under ANY adversary, the limit behaviour of an infinite run is a.s. an end
// component (de Alfaro); under a FAIR adversary it must moreover contain an
// action of every philosopher. Hence:
//
//   "some fair adversary avoids eating forever (with prob. 1 once inside)"
//       <=>  a reachable MEC of the non-E fragment has actions of ALL
//            philosophers ("fair EC").
//
// This is the mechanical core behind reproducing Theorems 1-4: LR1/LR2
// exhibit reachable fair ECs exactly on the paper's counterexample
// topologies; GDP1/GDP2 exhibit none (progress with probability 1).
#pragma once

#include <cstdint>
#include <vector>

#include "gdp/mdp/model.hpp"

namespace gdp::mdp {

/// The mask with every philosopher's bit set: what a fair component's
/// philosopher mask must equal.
inline std::uint64_t all_phils_mask(int num_phils) {
  return num_phils >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << num_phils) - 1);
}

struct EndComponent {
  std::vector<StateId> states;
  /// Philosophers with at least one usable action inside the component
  /// (bitmask; phil p set iff bit p). Fairness needs all n bits.
  std::uint64_t phil_mask = 0;

  bool fair(int num_phils) const { return phil_mask == all_phils_mask(num_phils); }
};

/// A MEC decomposition in flat form, in the same component order as the
/// vector<EndComponent> form: component k's member states, ascending, are
/// states[offsets[k] .. offsets[k + 1]) and its philosopher mask is
/// phil_mask[k]. One member array instead of one vector per component is
/// what the verdict kernels read and what a model's MecMemo holds.
struct MecList {
  std::vector<StateId> states;
  std::vector<std::uint32_t> offsets{0};  // size() + 1 entries
  std::vector<std::uint64_t> phil_mask;

  std::size_t size() const { return phil_mask.size(); }
  const StateId* begin(std::size_t k) const { return states.data() + offsets[k]; }
  const StateId* end(std::size_t k) const { return states.data() + offsets[k + 1]; }
  std::size_t members(std::size_t k) const { return offsets[k + 1] - offsets[k]; }
  bool fair(std::size_t k, int num_phils) const {
    return phil_mask[k] == all_phils_mask(num_phils);
  }
  std::size_t bytes() const {
    return states.size() * sizeof(StateId) + offsets.size() * sizeof(std::uint32_t) +
           phil_mask.size() * sizeof(std::uint64_t);
  }

  static MecList from(const std::vector<EndComponent>& mecs);
  std::vector<EndComponent> to_end_components() const;
};

/// All MECs of the sub-MDP restricted to the fully-expanded states where no
/// philosopher of `avoid_set` (bitmask) eats. Actions whose outcomes can
/// leave that restriction are discarded, so every returned component is
/// genuinely closed even on truncated models.
///
/// avoid_set semantics (the paper's §2 definitions):
///   * all philosophers  -> progress:            T --F-->_1 E
///   * a subset S        -> progress wrt S       (Theorems 1/2 deny it for
///                          the ring philosophers H)
///   * a singleton {i}   -> lockout-freedom of i: T_i --F-->_1 E_i
std::vector<EndComponent> maximal_end_components(const Model& model,
                                                 std::uint64_t avoid_set = ~std::uint64_t{0});

/// States reachable from the initial state (any adversary, any outcomes).
std::vector<bool> reachable_states(const Model& model);

}  // namespace gdp::mdp
