// GDP2 — the paper's lockout-free solution (§5, Table 4): GDP1's
// random-priority fork selection plus LR2's courtesy machinery (request
// lists and guest books).
//
//   1.  think;
//   2.  insert(id, left.r); insert(id, right.r);
//   3.  if left.nr > right.nr then fork := left else fork := right;
//   4.  if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//   5.  if fork.nr = other(fork).nr then fork.nr := random[1, m];
//   6.  if isFree(other(fork)) then take(other(fork))
//       else { release(fork); goto 3 }
//   7.  eat;
//   8.  remove(id, left.r); remove(id, right.r);
//   9.  insert(id, left.g); insert(id, right.g);
//   10. release(fork); release(other(fork));
//   11. goto 1;
//
// Theorem 4: Ti -> Ei with probability 1 under every fair adversary — every
// hungry philosopher eventually eats. Same atomicity conventions as LR2
// (see lr2.hpp header notes).
//
// REPRODUCTION NOTE (machine-checked, see experiment E5/E7): Table 4 as
// printed guards only the FIRST take with Cond (step 4); the second take
// (step 6) tests isFree alone. Under that literal reading our model checker
// finds a reachable fair end component in which a fixed philosopher never
// eats even on the classic ring(3): a neighbour whose nr-ordering routes the
// shared fork through its *second* take re-eats forever without ever facing
// the courtesy test, violating the W_{i,s} invariant of Theorem 4's proof
// ("philosophers that have eaten cannot eat again until their neighbours
// have"). The paper's prose — "BEFORE PICKING UP A FORK, a philosopher must
// check ..." (§3.2) — applies Cond to every pick; with Cond on both takes
// the checker certifies lockout-freedom. We therefore provide:
//   * Gdp2 (literal Table 4),          factory name "gdp2"
//   * Gdp2 courteous-both variant,     factory name "gdp2c"  <- Theorem 4
// On a Cond failure at the second fork the variant releases the first and
// re-chooses (the same escape Table 4 uses for a taken second fork), which
// preserves the no-hold-and-wait discipline and hence progress.
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Gdp2 final : public Algorithm {
 public:
  Gdp2() : Gdp2(AlgoConfig{}, false) {}
  explicit Gdp2(AlgoConfig config, bool cond_on_second_take = false)
      : Algorithm(config), cond_on_second_(cond_on_second_take) {}

  std::string name() const override { return cond_on_second_ ? "gdp2c" : "gdp2"; }
  bool uses_books() const override { return true; }
  bool uses_numbers() const override { return true; }

  /// True for the prose-faithful variant that applies Cond to both takes.
  bool cond_on_second_take() const { return cond_on_second_; }

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;

 private:
  bool cond_on_second_;
};

}  // namespace gdp::algos
