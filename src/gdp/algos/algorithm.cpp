#include "gdp/algos/algorithm.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Algorithm::validate(const graph::Topology& t) const {
  if (uses_books()) {
    GDP_CHECK_MSG(t.max_degree() <= 64,
                  name() << " keeps per-sharer request bits; fork degree must be <= 64, got "
                         << t.max_degree());
  }
  if (config_.m != 0) {
    GDP_CHECK_MSG(config_.m >= t.num_forks(),
                  "GDP requires m >= k: m=" << config_.m << ", k=" << t.num_forks());
  }
}

int Algorithm::effective_m(const graph::Topology& t) const {
  const int m = config_.m != 0 ? config_.m : t.num_forks();
  GDP_CHECK_MSG(m <= 0xffff, "m=" << m << " exceeds the nr field's range");
  return m;
}

sim::SimState Algorithm::initial_state(const graph::Topology& t) const {
  validate(t);
  SimState state;
  state.forks.assign(static_cast<std::size_t>(t.num_forks()), sim::ForkState{});
  state.phils.assign(static_cast<std::size_t>(t.num_phils()), sim::PhilState{});
  if (uses_books()) {
    for (ForkId f = 0; f < t.num_forks(); ++f) {
      state.fork(f).use_rank.assign(static_cast<std::size_t>(t.degree(f)), 0);
    }
  }
  init_aux(state, t);
  return state;
}

void Algorithm::think_step(const SimState& state, PhilId p, Phase first_phase,
                           sim::BranchBuffer& out) const {
  GDP_DCHECK(state.phil(p).phase == Phase::kThinking);
  const StepEvent woke{EventKind::kStartTrying, Side::kLeft, kNoFork, 0};
  if (config_.think == ThinkMode::kHungry || config_.think_coin >= 1.0) {
    out.add(1.0, woke, state).phil(p).phase = first_phase;
    return;
  }
  GDP_DCHECK(config_.think_coin > 0.0);
  // Coin mode: geometric thinking time.
  out.add(config_.think_coin, woke, state).phil(p).phase = first_phase;
  out.add(1.0 - config_.think_coin, StepEvent{EventKind::kStillThinking}, state);
}

}  // namespace gdp::algos
