// Baseline 1 of the paper's introduction: "The forks are ordered and each
// philosopher tries to get first the adjacent fork which is higher in the
// ordering."
//
// The global order is the fork id. Acquiring consistently by the order lets
// a philosopher *hold and wait* for the second fork (no release/retry): a
// circular wait would need a philosopher waiting downward in the order,
// which cannot happen — the classic hierarchical resource allocation
// argument, valid on arbitrary topologies.
//
// NOT symmetric (fork ids distinguish states); deterministic; serves as the
// partial-order ideal that GDP1 randomly converges to (§4's proof reduces
// the post-convergence behaviour to exactly this algorithm).
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class OrderedForks final : public Algorithm {
 public:
  explicit OrderedForks(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "ordered"; }
  bool symmetric() const override { return false; }

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;
};

}  // namespace gdp::algos
