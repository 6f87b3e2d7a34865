// Decision procedures for the paper's liveness notions (§2 definitions):
//
//   progress            — whenever a philosopher is hungry, eventually SOME
//                         philosopher eats           (T --F-->_1 E)
//   progress wrt S      — ... some philosopher OF S eats (Theorems 1 and 2
//                         deny this for the ring philosophers H under
//                         LR1/LR2 on generalized topologies)
//   lockout-freedom     — every hungry philosopher itself eventually eats
//                         (T_i --F-->_1 E_i; Theorem 4's property for GDP2)
//
// Each reduces to the absence of a reachable fair end component inside the
// corresponding "no relevant eating" fragment — see end_components.hpp. A
// found witness EC is the machine-checked analogue of the paper's hand-built
// adversary strategies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::mdp {

enum class Verdict : std::uint8_t {
  /// No reachable fair EC avoids the target eating set: the property holds
  /// with probability 1 under every fair adversary (needs a complete model).
  kProgressCertain,
  /// A reachable fair EC avoiding the target set exists: some fair adversary
  /// denies the property with positive probability (sound even on truncated
  /// models; the witness uses only fully-explored states).
  kProgressFails,
  /// Exploration was truncated and no fair EC was found in the prefix.
  kUnknownTruncated,
};

const char* to_string(Verdict verdict);

struct FairProgressResult {
  Verdict verdict = Verdict::kUnknownTruncated;
  std::uint64_t avoid_set = ~std::uint64_t{0};
  std::size_t num_states = 0;
  std::size_t num_mecs = 0;       // MECs of the restricted fragment
  std::size_t num_fair_mecs = 0;  // ... with actions of every philosopher
  std::size_t witness_size = 0;   // states in the first reachable fair EC
  std::optional<StateId> witness_state;

  bool holds() const { return verdict == Verdict::kProgressCertain; }
  std::string summary() const;
};

/// Progress wrt the philosophers in `set_mask` (default: everyone — plain
/// progress, the property of Theorem 3).
FairProgressResult check_fair_progress(const Model& model,
                                       std::uint64_t set_mask = ~std::uint64_t{0});

/// Lockout-freedom of philosopher `victim` (Theorem 4's property when it
/// holds for every victim).
FairProgressResult check_lockout_freedom(const Model& model, PhilId victim);

/// One-call conveniences: explore + check.
FairProgressResult check_fair_progress(const algos::Algorithm& algo, const graph::Topology& t,
                                       std::size_t max_states = 2'000'000,
                                       std::uint64_t set_mask = ~std::uint64_t{0});

}  // namespace gdp::mdp
