// GDP1 — the paper's deadlock-free solution for arbitrary topologies
// (§4, Table 3):
//
//   1. think;
//   2. if left.nr > right.nr then fork := left else fork := right;
//   3. if isFree(fork) then take(fork) else goto 3;
//   4. if fork.nr = other(fork).nr then fork.nr := random[1, m];
//   5. if isFree(other(fork)) then take(other(fork))
//      else { release(fork); goto 2 }
//   6. eat;
//   7. release(fork); release(other(fork));
//   8. goto 1;
//
// Every fork carries a number nr in [0, m], m >= k, initially 0. The first
// fork is the higher-numbered one (ties go to `right`, per the else branch);
// a philosopher holding its first fork re-randomizes that fork's nr if it
// equals the other fork's. Randomization eventually makes all adjacent forks
// distinct along every cycle, after which the system behaves like a
// hierarchical (partial-order) resource allocator: progress with probability
// 1 under every fair adversary (Theorem 3). Not lockout-free (§5's
// counter-scenario; see GDP2 and the StarveGdp1 scheduler).
//
// Note the re-randomization has no retry: random[1, m] may collide again
// (probability 1/m) and the philosopher proceeds regardless — exactly as in
// Table 3; the proof only needs fresh attempts on later passes.
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Gdp1 final : public Algorithm {
 public:
  explicit Gdp1(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "gdp1"; }
  bool uses_numbers() const override { return true; }

  /// Table 3 step 2 as a pure function: the side of the first fork.
  static Side choose_first(const graph::Topology& t, const sim::SimState& state, PhilId p);

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;
};

}  // namespace gdp::algos
