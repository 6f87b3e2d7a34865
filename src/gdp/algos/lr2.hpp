// LR2 — the second (courteous / lockout-free) algorithm of Lehmann & Rabin,
// in the paper's generalized formulation (Table 2):
//
//   1.  think;
//   2.  insert(id, left.r); insert(id, right.r);
//   3.  fork := random_choice(left, right);
//   4.  if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//   5.  if isFree(other(fork)) then take(other(fork))
//       else { release(fork); goto 3 }
//   6.  eat;
//   7.  remove(id, left.r); remove(id, right.r);
//   8.  insert(id, left.g); insert(id, right.g);
//   9.  release(fork); release(other(fork));
//   10. goto 1;
//
// Cond(fork): there are no other incoming requests for the fork, or every
// other requester has used it after this philosopher did (the courtesy that
// yields lockout-freedom on the classic ring). Lockout-free on the ring;
// *fails* on graphs with a ring + a third path between two of its nodes
// (paper §3.2, Theorem 2) — see gdp/sim/schedulers/trap_lr2.hpp.
//
// Granularity notes (documented deviations, behaviour-preserving):
//   * line 2's two inserts are one atomic step (they precede any contention);
//   * lines 7-9 (deregister, sign guest books, release both) execute in the
//     single "finish eating" step — the paper's adversary arguments only
//     inspect configurations between steps of *other* philosophers, and no
//     other philosopher can act between sub-actions of an atomic step.
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Lr2 final : public Algorithm {
 public:
  explicit Lr2(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "lr2"; }
  bool uses_books() const override { return true; }

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;
};

}  // namespace gdp::algos
