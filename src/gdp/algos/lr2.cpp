#include "gdp/algos/lr2.hpp"

#include "gdp/common/check.hpp"

namespace gdp::algos {

using sim::EventKind;
using sim::Phase;
using sim::SimState;
using sim::StepEvent;

namespace {

void set_request(SimState& state, const graph::Topology& t, ForkId f, PhilId p, bool on) {
  const int slot = t.slot_of(f, p);
  if (on) {
    state.fork(f).requests |= (std::uint64_t{1} << slot);
  } else {
    state.fork(f).requests &= ~(std::uint64_t{1} << slot);
  }
}

}  // namespace

void Lr2::enumerate(const graph::Topology& t, const SimState& state, PhilId p,
                    sim::BranchBuffer& out) const {
  const sim::PhilState& me = state.phil(p);

  switch (me.phase) {
    case Phase::kThinking:
      think_step(state, p, Phase::kRegister, out);
      return;

    case Phase::kRegister: {
      // Step 2: announce interest on both forks.
      SimState& next = out.add(1.0, StepEvent{EventKind::kRegistered}, state);
      set_request(next, t, t.left_of(p), p, true);
      set_request(next, t, t.right_of(p), p, true);
      next.phil(p).phase = Phase::kChoose;
      return;
    }

    case Phase::kChoose: {
      // Step 3: random draw.
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
      // Step 4: take needs the fork free *and* Cond(fork).
      const ForkId f = t.fork_of(p, me.committed);
      if (state.fork(f).free() && sim::cond_holds(state, t, f, p)) {
        SimState& next = out.add(1.0, StepEvent{EventKind::kTookFirst, me.committed, f, 0}, state);
        sim::try_take(next, f, p);
        next.phil(p).phase = Phase::kTrySecond;
      } else {
        out.add(1.0, StepEvent{EventKind::kBlockedFirst, me.committed, f, 0}, state);
      }
      return;
    }

    case Phase::kTrySecond: {
      // Step 5: the second fork needs only isFree (no Cond), per Table 2.
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
      // Steps 6-10: deregister, sign both guest books, release, think.
      SimState& next = out.add(1.0, StepEvent{EventKind::kFinishedEating}, state);
      set_request(next, t, t.left_of(p), p, false);
      set_request(next, t, t.right_of(p), p, false);
      sim::mark_used(next, t, t.left_of(p), p);
      sim::mark_used(next, t, t.right_of(p), p);
      sim::release(next, t.left_of(p), p);
      sim::release(next, t.right_of(p), p);
      next.phil(p).phase = Phase::kThinking;
      return;
    }

    case Phase::kRenumber:
    case Phase::kWaitGrant:
      break;
  }
  GDP_CHECK_MSG(false, "LR2: philosopher " << p << " in foreign phase");
  __builtin_unreachable();
}

}  // namespace gdp::algos
