// LR1 — the first algorithm of Lehmann & Rabin (paper Table 1).
//
//   1. think;
//   2. fork := random_choice(left, right);
//   3. if isFree(fork) then take(fork) else goto 3;
//   4. if isFree(other(fork)) then take(other(fork))
//      else { release(fork); goto 2 }
//   5. eat;
//   6. release(fork); release(other(fork));
//   7. goto 1;
//
// Guarantees progress with probability 1 on the classic ring under every
// fair adversary (Lehmann & Rabin 1981); *fails* on generalized topologies
// (paper §3, Theorem 1) — see gdp/sim/schedulers/trap_lr1.hpp for the
// winning adversary.
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Lr1 final : public Algorithm {
 public:
  explicit Lr1(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "lr1"; }

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;
};

}  // namespace gdp::algos
