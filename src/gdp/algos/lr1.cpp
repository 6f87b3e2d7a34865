#include "gdp/algos/lr1.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Lr1::enumerate(const graph::Topology& t, const SimState& state, PhilId p,
                    sim::BranchBuffer& out) const {
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kChoose, out);
      return;

    case Phase::kChoose: {
      // Step 2: fork := random_choice(left, right).
      for (Side side : {Side::kLeft, Side::kRight}) {
        const double prob = side == Side::kLeft ? config_.p_left : 1.0 - config_.p_left;
        if (prob <= 0.0) continue;
        SimState& next =
            out.add(prob, StepEvent{EventKind::kChose, side, t.fork_of(p, side), 0}, state);
        next.phil(p).phase = Phase::kCommit;
        next.phil(p).committed = side;
      }
      return;
    }

    case Phase::kCommit: {
      // Step 3: atomic test-and-set on the committed fork; busy-wait on failure.
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
      // Step 4: try the other fork; on failure release the first and redraw.
      const ForkId f = t.fork_of(p, me.committed);
      const ForkId g = t.other_fork(p, f);
      if (state.fork(g).free()) {
        SimState& next = out.add(1.0, StepEvent{EventKind::kTookSecond, me.committed, g, 0}, state);
        sim::try_take(next, g, p);
        next.phil(p).phase = Phase::kEating;
      } else {
        SimState& next =
            out.add(1.0, StepEvent{EventKind::kFailedSecond, me.committed, g, 0}, state);
        sim::release(next, f, p);
        next.phil(p).phase = Phase::kChoose;
      }
      return;
    }

    case Phase::kEating: {
      // Steps 5-7: finish eating, release both, resume thinking.
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
  GDP_CHECK_MSG(false, "LR1: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
