#include "gdp/algos/colored.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

void Colored::validate(const graph::Topology& t) const {
  Algorithm::validate(t);
  const int n = t.num_phils();
  GDP_CHECK_MSG(n >= 2 && n % 2 == 0, "colored needs an even ring; got " << n << " philosophers");
  GDP_CHECK_MSG(t.num_forks() == n, "colored needs a classic ring (n forks), got k="
                                        << t.num_forks() << " for n=" << n);
  for (PhilId p = 0; p < n; ++p) {
    GDP_CHECK_MSG(t.left_of(p) == p && t.right_of(p) == (p + 1) % n,
                  "colored needs the canonical ring orientation (phil i: left=i, right=i+1); "
                  "philosopher " << p << " deviates");
  }
}

void Colored::enumerate(const graph::Topology& t, const SimState& state, PhilId p,
                        sim::BranchBuffer& out) const {
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kChoose, out);
      return;

    case Phase::kChoose: {
      // Yellow (even id) -> left first; blue (odd id) -> right first.
      const Side side = (p % 2 == 0) ? Side::kLeft : Side::kRight;
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
      // Hold-and-wait on the second fork (safe under alternation).
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
  GDP_CHECK_MSG(false, "colored: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
