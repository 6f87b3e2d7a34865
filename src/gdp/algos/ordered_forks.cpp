#include "gdp/algos/ordered_forks.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void OrderedForks::enumerate(const graph::Topology& t, const SimState& state, PhilId p,
                             sim::BranchBuffer& out) const {
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kChoose, out);
      return;

    case Phase::kChoose: {
      // First fork = the higher id (the paper's wording).
      const Side side = t.left_of(p) > t.right_of(p) ? Side::kLeft : Side::kRight;
      SimState& next =
          out.add(1.0, StepEvent{EventKind::kChose, side, t.fork_of(p, side), 0}, state);
      next.phil(p).phase = Phase::kCommit;
      next.phil(p).committed = side;
      return;
    }

    case Phase::kCommit: {
      const ForkId f = t.fork_of(p, me.committed);
      if (state.fork(f).free()) {
        SimState& next = out.add(1.0, StepEvent{EventKind::kTookFirst, me.committed, f, 0}, state);
        sim::try_take(next, f, p);
        next.phil(p).phase = Phase::kTrySecond;
      } else {
        out.add(1.0, StepEvent{EventKind::kBlockedFirst, me.committed, f, 0}, state);
      }
      return;
    }

    case Phase::kTrySecond: {
      // Hold-and-wait: keep the first fork and spin until the second frees.
      const ForkId f = t.fork_of(p, me.committed);
      const ForkId g = t.other_fork(p, f);
      if (state.fork(g).free()) {
        SimState& next = out.add(1.0, StepEvent{EventKind::kTookSecond, me.committed, g, 0}, state);
        sim::try_take(next, g, p);
        next.phil(p).phase = Phase::kEating;
      } else {
        out.add(1.0, StepEvent{EventKind::kBlockedSecond, me.committed, g, 0}, state);
      }
      return;
    }

    case Phase::kEating: {
      SimState& next = out.add(1.0, StepEvent{EventKind::kFinishedEating}, state);
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      next.phil(p).phase = Phase::kThinking;
      return;
    }

    case Phase::kRegister:
    case Phase::kRenumber:
    case Phase::kWaitGrant:
      break;
  }
  GDP_CHECK_MSG(false, "ordered: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
