// Baseline 2 of the paper's introduction: "The philosophers are colored
// yellow and blue alternately. The yellow philosophers try to get first the
// fork to their left. The blue ones try to get first the fork to their
// right."
//
// Alternation requires an even ring (the line graph must be 2-colorable with
// the alternating pattern); validate() enforces a classic even ring in
// canonical orientation (philosopher i between forks i and i+1 mod n). Even
// philosophers are yellow. With the alternation, every fork that is anyone's
// *first* fork is nobody's first-from-the-other-side, so hold-and-wait is
// deadlock-free. NOT symmetric (colors distinguish philosophers).
#pragma once

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

class Colored final : public Algorithm {
 public:
  explicit Colored(AlgoConfig config = {}) : Algorithm(config) {}

  std::string name() const override { return "colored"; }
  bool symmetric() const override { return false; }

  void validate(const graph::Topology& t) const override;

 protected:
  void enumerate(const graph::Topology& t, const sim::SimState& state, PhilId p,
                 sim::BranchBuffer& out) const override;
};

}  // namespace gdp::algos
