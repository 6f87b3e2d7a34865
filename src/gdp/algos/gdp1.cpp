#include "gdp/algos/gdp1.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

Side Gdp1::choose_first(const graph::Topology& t, const SimState& state, PhilId p) {
  const auto left_nr = state.fork(t.left_of(p)).nr;
  const auto right_nr = state.fork(t.right_of(p)).nr;
  return left_nr > right_nr ? Side::kLeft : Side::kRight;
}

void Gdp1::enumerate(const graph::Topology& t, const SimState& state, PhilId p,
                     sim::BranchBuffer& out) const {
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kChoose, out);
      return;

    case Phase::kChoose: {
      // Step 2: deterministic — first fork is the higher-numbered one.
      const Side side = choose_first(t, state, p);
      SimState& next =
          out.add(1.0, StepEvent{EventKind::kChose, side, t.fork_of(p, side), 0}, state);
      next.phil(p).phase = Phase::kCommit;
      next.phil(p).committed = side;
      return;
    }

    case Phase::kCommit: {
      // Step 3: test-and-set, busy-wait on failure.
      const ForkId f = t.fork_of(p, me.committed);
      if (state.fork(f).free()) {
        SimState& next = out.add(1.0, StepEvent{EventKind::kTookFirst, me.committed, f, 0}, state);
        sim::try_take(next, f, p);
        next.phil(p).phase = Phase::kRenumber;
      } else {
        out.add(1.0, StepEvent{EventKind::kBlockedFirst, me.committed, f, 0}, state);
      }
      return;
    }

    case Phase::kRenumber: {
      // Step 4: holding the first fork — re-randomize its nr on equality.
      const ForkId f = t.fork_of(p, me.committed);
      const ForkId g = t.other_fork(p, f);
      if (state.fork(f).nr == state.fork(g).nr) {
        const int m = effective_m(t);
        for (int v = 1; v <= m; ++v) {
          SimState& next =
              out.add(1.0 / m, StepEvent{EventKind::kRenumbered, me.committed, f, v}, state);
          next.fork(f).nr = static_cast<std::uint16_t>(v);
          next.phil(p).phase = Phase::kTrySecond;
        }
      } else {
        SimState& next = out.add(1.0, StepEvent{EventKind::kNrDistinct, me.committed, f, 0}, state);
        next.phil(p).phase = Phase::kTrySecond;
      }
      return;
    }

    case Phase::kTrySecond: {
      // Step 5: try the other fork; on failure release and re-choose by nr.
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
      // Steps 6-8.
      SimState& next = out.add(1.0, StepEvent{EventKind::kFinishedEating}, state);
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      next.phil(p).phase = Phase::kThinking;
      return;
    }

    case Phase::kRegister:
    case Phase::kWaitGrant:
      break;
  }
  GDP_CHECK_MSG(false, "GDP1: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
