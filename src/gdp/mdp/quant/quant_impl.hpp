// Template definitions of the quantitative analysis pipeline, generalized
// over any type exposing the Model read API. Instantiated for `Model`
// (quant.cpp) and for `store::ChunkedModel` (store.cpp — the chunk-native
// verdict path): every interval endpoint and sweep count is bit-identical
// on both paths because the model is only read here, through one shared
// definition.
//
// Everything runs on the MEC quotient of the relevant fragment. Collapsing
// maximal end components is what makes iteration-from-above meaningful: the
// quotient graph provably has no end components besides its terminals (an EC
// spanning quotient nodes would project back to an EC of the fragment, which
// is contained in a MEC — contradiction with crossing distinct nodes), so
// the reach/time Bellman operators have unique fixed points over it, and
// upper iterates cannot stall on a spurious cyclic fixed point.
//
// Quotient layout: one node per non-terminal state class (a MEC, or a
// single state outside every MEC), node-major CSR of EXTERNAL actions (a
// member state's action is internal — and dropped — iff every outcome stays
// in the same MEC; singleton non-MEC states cannot have fully-internal
// actions, or they would be an EC themselves). Node ids, action order and
// outcome order are those of one ascending state scan, computed by range
// passes whose boundaries depend only on the sizes (per-range counts, then
// an ordered prefix), so the quotient bytes are identical for every thread
// count. Within a node, an action whose outcome list
// (destinations and float probability bits, in order) repeats an earlier
// one is dropped, keeping the first occurrence in (member ascending,
// philosopher) order: every operator here takes a max over a node's
// actions, and the max over a multiset is the max over its set. The
// quotient is compact — 32-bit offsets, 4-byte destinations and the
// model's own float probabilities, 8 bytes per outcome — and
// self-contained: the Bellman sweeps over it never touch the model again,
// which is what keeps the chunk-native path's working set to the hot
// chunks plus the quotient.
//
// e_min charges MEC-internal steps, so it runs over raw states rather than
// the quotient; it too is compiled once per target into the same CSR form
// (see compile_time_min), so its sweeps never touch the model either.
//
// All Bellman sweeps are Jacobi (read prev, write next) with monotone
// clamps (lower = max(old, T(old)), upper = min(old, T(old)) — both sides
// of each clamp are valid bounds, so clamping preserves soundness and
// enforces the monotonicity the property tests pin). Each sweep is one
// pass over common::parallel_ranges ranges: it reads each action's
// outcomes once for every bound it updates and returns the range's
// residual maxima, folded in range order (common::parallel_chunk_max), so
// a sweep is one pool call. Expected-time
// upper bounds come from optimistic value iteration: guess U = (1 + d) * L,
// accept only when T(U) <= U pointwise (which proves U >= the true value
// by monotone unrolling), then co-iterate both bounds down to epsilon.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/mdp/par/end_components_impl.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::mdp::quant::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sentinels shared by node_of (state -> class) and dest (outcome target).
inline constexpr std::uint32_t kGoal = 0xFFFFFFFFu;     // target terminal
inline constexpr std::uint32_t kUnknown = 0xFFFFFFFEu;  // frontier terminal
inline constexpr std::uint32_t kAbsent = 0xFFFFFFFDu;   // unreachable state (never referenced)

inline bool is_node(std::uint32_t c) { return c < kAbsent; }

/// Refuses a CSR whose `count` actions or outcomes (named by `what`) do not
/// fit its 32-bit offsets. The offset arrays hold count + 1 entries up to
/// `count`, so the largest accepted count is 2^32 - 2.
inline void check_csr_offsets(std::size_t count, const char* what) {
  GDP_CHECK_MSG(count < std::size_t{0xFFFFFFFFu},
                "quant: " << count << " " << what
                          << " do not fit the quotient's 32-bit offsets (at most 4294967294)");
}

/// Node-major CSR of actions: node i's actions are [act_off[i],
/// act_off[i + 1]), action a's outcomes [out_off[a], out_off[a + 1]).
/// `prob` holds the model's own floats (widened at use, which gives the
/// same double the model would).
struct Csr {
  std::uint32_t num_nodes = 0;
  std::vector<std::uint32_t> act_off;  // num_nodes + 1
  std::vector<std::uint32_t> out_off;  // act_off[num_nodes] + 1
  std::vector<float> prob;
  std::vector<std::uint32_t> dest;  // node id / kGoal / kUnknown

  bool has_actions(std::uint32_t i) const { return act_off[i + 1] > act_off[i]; }
  std::size_t num_actions() const { return out_off.empty() ? 0 : out_off.size() - 1; }
};

/// The MEC quotient of one fragment of the model (see file comment).
struct Quotient : Csr {
  std::uint32_t initial = kAbsent;  // class of model.initial()

  std::vector<std::uint32_t> node_of;  // state -> node id / kGoal / kUnknown / kAbsent
  std::vector<std::int32_t> mec_node;  // mec index -> node id (-1: no reachable member)

  /// Nodes reachable from `initial` along quotient edges (empty when the
  /// initial state is itself a terminal).
  std::vector<std::uint8_t> reachable_nodes() const {
    std::vector<std::uint8_t> seen(num_nodes, 0);
    if (!is_node(initial)) return seen;
    std::vector<std::uint32_t> stack{initial};
    seen[initial] = 1;
    while (!stack.empty()) {
      const std::uint32_t q = stack.back();
      stack.pop_back();
      for (std::uint32_t a = act_off[q]; a < act_off[q + 1]; ++a) {
        for (std::uint32_t o = out_off[a]; o < out_off[a + 1]; ++o) {
          const std::uint32_t d = dest[o];
          if (is_node(d) && !seen[d]) {
            seen[d] = 1;
            stack.push_back(d);
          }
        }
      }
    }
    return seen;
  }
};

/// True iff actions a and b of `g` have the same outcome list: the same
/// destinations and the same float probability bits, in the same order.
inline bool same_action(const Csr& g, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t len = g.out_off[a + 1] - g.out_off[a];
  if (g.out_off[b + 1] - g.out_off[b] != len) return false;
  const std::uint32_t oa = g.out_off[a], ob = g.out_off[b];
  return std::memcmp(g.dest.data() + oa, g.dest.data() + ob, len * sizeof(std::uint32_t)) == 0 &&
         std::memcmp(g.prob.data() + oa, g.prob.data() + ob, len * sizeof(float)) == 0;
}

inline std::uint64_t action_hash(const Csr& g, std::uint32_t a) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t o = g.out_off[a]; o < g.out_off[a + 1]; ++o) {
    std::uint32_t bits;
    std::memcpy(&bits, &g.prob[o], sizeof bits);
    h ^= (std::uint64_t{g.dest[o]} << 32) | bits;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  return h;
}

/// Drops every action of `raw` whose outcome list repeats an earlier action
/// of the same node, keeping first occurrences in their original order.
/// Nodes are independent, so this runs over parallel node ranges: one pass
/// marks the survivors and counts them per node, a sequential prefix places
/// each node, and a second pass copies. Returns `raw` itself (moved) when
/// nothing repeats.
inline Csr dedup_actions(Csr raw, int threads, std::size_t& duplicates) {
  const std::uint32_t nodes = raw.num_nodes;
  constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  constexpr std::uint32_t kLinearScan = 8;  // below this, compare pairwise
  std::vector<std::uint8_t> keep(raw.num_actions(), 1);
  std::vector<std::uint32_t> kept_acts(nodes, 0), kept_outs(nodes, 0);
  common::parallel_ranges(nodes, threads, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> table;  // open addressing over action ids
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t first = raw.act_off[i], last = raw.act_off[i + 1];
      const std::uint32_t k = last - first;
      if (k <= kLinearScan) {
        for (std::uint32_t a = first + 1; a < last; ++a) {
          for (std::uint32_t b = first; b < a && keep[a]; ++b) {
            if (keep[b] && same_action(raw, a, b)) keep[a] = 0;
          }
        }
      } else {
        const std::size_t slots = std::bit_ceil(std::size_t{2} * k);
        table.assign(slots, kEmpty);
        for (std::uint32_t a = first; a < last; ++a) {
          std::size_t slot = action_hash(raw, a) & (slots - 1);
          for (; table[slot] != kEmpty; slot = (slot + 1) & (slots - 1)) {
            if (same_action(raw, a, table[slot])) {
              keep[a] = 0;
              break;
            }
          }
          if (keep[a]) table[slot] = a;
        }
      }
      std::uint32_t acts = 0, outs = 0;
      for (std::uint32_t a = first; a < last; ++a) {
        if (!keep[a]) continue;
        ++acts;
        outs += raw.out_off[a + 1] - raw.out_off[a];
      }
      kept_acts[i] = acts;
      kept_outs[i] = outs;
    }
  });

  Csr out;
  out.num_nodes = nodes;
  out.act_off.assign(std::size_t{nodes} + 1, 0);
  std::vector<std::uint32_t> out_base(nodes, 0);
  std::uint32_t next_out = 0;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    out.act_off[i + 1] = out.act_off[i] + kept_acts[i];
    out_base[i] = next_out;
    next_out += kept_outs[i];
  }
  duplicates = raw.num_actions() - out.act_off[nodes];
  if (duplicates == 0) return raw;
  out.out_off.assign(std::size_t{out.act_off[nodes]} + 1, 0);
  out.prob.resize(next_out);
  out.dest.resize(next_out);
  common::parallel_ranges(nodes, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t a_to = out.act_off[i], o_to = out_base[i];
      for (std::uint32_t a = raw.act_off[i]; a < raw.act_off[i + 1]; ++a) {
        if (!keep[a]) continue;
        for (std::uint32_t o = raw.out_off[a]; o < raw.out_off[a + 1]; ++o, ++o_to) {
          out.prob[o_to] = raw.prob[o];
          out.dest[o_to] = raw.dest[o];
        }
        out.out_off[++a_to] = o_to;
      }
    }
  });
  return out;
}

/// Builds the quotient over the `reached` states. States matching
/// `target_mask` eaters become the kGoal terminal when `target_terminal`
/// (the reach-target quotients) and ordinary states otherwise (the p_trap
/// quotient, where meals are just states on the way); frontier states are
/// always the kUnknown terminal. `mecs` must be the MEC decomposition of
/// exactly this fragment (avoid_set == target_mask when target_terminal,
/// avoid_set == 0 otherwise).
///
/// Every pass runs over parallel ranges of states, components or nodes.
/// Node ids are those of one ascending state scan — a state opens a node
/// when it is the first reached non-terminal member of its class — computed
/// as per-range counts of the states that open a node, a prefix over the
/// ranges, and a pass that numbers each range's openers in order.
template <class ModelT>
Quotient build_quotient(const ModelT& model, const MecList& mecs,
                        const std::vector<bool>& reached, std::uint64_t target_mask,
                        bool target_terminal, const QuantOptions& options) {
  const std::size_t n = model.num_states();
  const int phils = model.num_phils();
  const int threads = n >= options.seq_sweep_threshold ? options.threads : 1;
  const std::size_t ranges = (n + common::kRangeSize - 1) / common::kRangeSize;

  Quotient q;
  q.node_of.assign(n, kAbsent);
  q.mec_node.assign(mecs.size(), -1);

  // A reached state is a terminal or a node member.
  auto terminal = [&](std::size_t s) -> std::uint32_t {
    const StateId state = static_cast<StateId>(s);
    if (target_terminal && (model.eaters(state) & target_mask) != 0) return kGoal;
    if (model.frontier(state)) return kUnknown;
    return kAbsent;
  };

  // MEC membership per state (members are disjoint across MECs), and each
  // MEC's first reached non-terminal member: the state that opens its node.
  std::vector<std::int32_t> mec_of(n, -1);
  std::vector<StateId> opener(mecs.size(), kAbsent);
  common::parallel_ranges(mecs.size(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t m = lo; m < hi; ++m) {
      for (const StateId* it = mecs.begin(m); it != mecs.end(m); ++it) {
        mec_of[*it] = static_cast<std::int32_t>(m);
        if (opener[m] == kAbsent && reached[*it] && terminal(*it) == kAbsent) opener[m] = *it;
      }
    }
  });
  // Valid once the counting pass below has marked the terminals.
  auto node_state = [&](std::size_t s) { return reached[s] && q.node_of[s] == kAbsent; };
  auto opens_node = [&](std::size_t s) {
    return node_state(s) && (mec_of[s] < 0 || opener[static_cast<std::size_t>(mec_of[s])] == s);
  };

  // Node numbering: per-range opener counts, a prefix, then each range
  // numbers its openers in ascending order.
  std::vector<std::uint32_t> range_base(ranges + 1, 0);
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint32_t count = 0;
    for (std::size_t s = lo; s < hi; ++s) {
      if (!reached[s]) continue;
      q.node_of[s] = terminal(s);
      count += opens_node(s) ? 1 : 0;
    }
    range_base[lo / common::kRangeSize + 1] = count;
  });
  for (std::size_t r = 0; r < ranges; ++r) range_base[r + 1] += range_base[r];
  q.num_nodes = range_base[ranges];
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint32_t next = range_base[lo / common::kRangeSize];
    for (std::size_t s = lo; s < hi; ++s) {
      if (!opens_node(s)) continue;
      q.node_of[s] = next;
      if (mec_of[s] >= 0) {
        q.mec_node[static_cast<std::size_t>(mec_of[s])] = static_cast<std::int32_t>(next);
      }
      ++next;
    }
  });
  // The other node states of each MEC join its node.
  common::parallel_ranges(mecs.size(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t m = lo; m < hi; ++m) {
      if (q.mec_node[m] < 0) continue;
      for (const StateId* it = mecs.begin(m); it != mecs.end(m); ++it) {
        if (node_state(*it)) q.node_of[*it] = static_cast<std::uint32_t>(q.mec_node[m]);
      }
    }
  });
  q.initial = reached[model.initial()] ? q.node_of[model.initial()] : kAbsent;

  // fn(s) for every member of MEC m's node, ascending.
  auto for_each_member = [&](std::size_t m, const auto& fn) {
    const auto node = static_cast<std::uint32_t>(q.mec_node[m]);
    for (const StateId* it = mecs.begin(m); it != mecs.end(m); ++it) {
      if (q.node_of[*it] == node) fn(*it);
    }
  };

  // Calls fn(begin, end) for every external action of node member s.
  auto for_each_external = [&](std::size_t s, const auto& fn) {
    const std::uint32_t me = q.node_of[s];
    const bool in_mec = mec_of[s] >= 0;
    for (int p = 0; p < phils; ++p) {
      const auto [begin, end] = model.row(static_cast<StateId>(s), p);
      if (begin == end) continue;
      if (in_mec) {
        bool internal = true;
        for (const Outcome* o = begin; o != end && internal; ++o) {
          internal = q.node_of[o->next] == me;
        }
        if (internal) continue;  // dwell inside the MEC: collapsed away
      }
      fn(begin, end);
    }
  };

  // External-action and outcome counts per state, and their totals per
  // range (parallel; disjoint writes). A node of one state (outside every
  // MEC) takes its state's counts as its own.
  Csr raw;
  raw.num_nodes = q.num_nodes;
  raw.act_off.assign(std::size_t{q.num_nodes} + 1, 0);
  std::vector<std::uint32_t> node_out(std::size_t{q.num_nodes} + 1, 0);
  std::vector<std::uint32_t> act_at(n, 0), out_at(n, 0);
  std::vector<std::uint64_t> range_acts(ranges, 0), range_outs(ranges, 0);
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t range_a = 0, range_o = 0;
    for (std::size_t s = lo; s < hi; ++s) {
      const std::uint32_t node = q.node_of[s];
      if (!is_node(node)) continue;
      std::uint32_t acts = 0, outs = 0;
      for_each_external(s, [&](const Outcome* begin, const Outcome* end) {
        ++acts;
        outs += static_cast<std::uint32_t>(end - begin);
      });
      act_at[s] = acts;
      out_at[s] = outs;
      if (mec_of[s] < 0) {
        raw.act_off[node + 1] = acts;
        node_out[node + 1] = outs;
      }
      range_a += acts;
      range_o += outs;
    }
    range_acts[lo / common::kRangeSize] = range_a;
    range_outs[lo / common::kRangeSize] = range_o;
  });
  std::uint64_t total_acts = 0, total_outs = 0;
  for (std::size_t r = 0; r < ranges; ++r) {
    total_acts += range_acts[r];
    total_outs += range_outs[r];
  }
  // Checked before deduplication: the raw quotient uses the same offsets.
  check_csr_offsets(total_acts, "quotient actions");
  check_csr_offsets(total_outs, "quotient outcomes");

  // Per-node offsets in (node, member-state ascending) order: the MEC
  // nodes' sums, a parallel prefix over all nodes, then each MEC node turns
  // its members' counts into their write bases (act_at / out_at hold bases
  // for MEC members from here on; a one-state node writes at its node's
  // offsets).
  common::parallel_ranges(mecs.size(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t m = lo; m < hi; ++m) {
      if (q.mec_node[m] < 0) continue;
      const std::size_t node = static_cast<std::size_t>(q.mec_node[m]);
      for_each_member(m, [&](StateId s) {
        raw.act_off[node + 1] += act_at[s];
        node_out[node + 1] += out_at[s];
      });
    }
  });
  par::detail::counts_to_offsets(raw.act_off, threads);
  par::detail::counts_to_offsets(node_out, threads);
  common::parallel_ranges(mecs.size(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t m = lo; m < hi; ++m) {
      if (q.mec_node[m] < 0) continue;
      const std::size_t node = static_cast<std::size_t>(q.mec_node[m]);
      std::uint32_t next_act = raw.act_off[node], next_out = node_out[node];
      for_each_member(m, [&](StateId s) {
        const std::uint32_t acts = act_at[s], outs = out_at[s];
        act_at[s] = next_act;
        out_at[s] = next_out;
        next_act += acts;
        next_out += outs;
      });
    }
  });
  raw.out_off.assign(static_cast<std::size_t>(total_acts) + 1, 0);
  raw.prob.resize(total_outs);
  raw.dest.resize(total_outs);

  // Fill (parallel; each state owns its precomputed ranges).
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const std::uint32_t node = q.node_of[s];
      if (!is_node(node)) continue;
      const bool in_mec = mec_of[s] >= 0;
      std::uint32_t a = in_mec ? act_at[s] : raw.act_off[node];
      std::uint32_t o_at = in_mec ? out_at[s] : node_out[node];
      for_each_external(s, [&](const Outcome* begin, const Outcome* end) {
        for (const Outcome* o = begin; o != end; ++o, ++o_at) {
          raw.prob[o_at] = o->prob;
          raw.dest[o_at] = q.node_of[o->next];
        }
        raw.out_off[++a] = o_at;  // row end; globally monotone by construction
      });
    }
  });

  std::size_t duplicates = 0;
  static_cast<Csr&>(q) = dedup_actions(std::move(raw), threads, duplicates);

  static obs::Counter& actions_ctr = obs::Registry::global().counter("quant.quotient_actions");
  static obs::Counter& outcomes_ctr = obs::Registry::global().counter("quant.quotient_outcomes");
  static obs::Counter& duplicates_ctr = obs::Registry::global().counter("quant.duplicate_actions");
  actions_ctr.add(q.num_actions());
  outcomes_ctr.add(q.dest.size());
  duplicates_ctr.add(duplicates);
  return q;
}

/// Per-iteration bookkeeping shared by the kernels.
struct Phase {
  std::size_t sweeps = 0;
  bool converged = false;
};

/// Unit-cost Bellman evaluation of element `i` against K value vectors at
/// once, so one read of i's actions and outcomes serves every bound: each
/// action costs one step plus the expected value of its outcomes (terminal
/// destinations count 0 steps), and the result is the max (kMax) or min
/// over i's actions — +inf when i has none (a dead end never reaches the
/// goal).
template <bool kMax, std::size_t K>
std::array<double, K> bell_time(const Csr& g, std::uint32_t i,
                                const std::array<const double*, K>& val) {
  std::array<double, K> best;
  best.fill(kMax ? -kInf : kInf);
  for (std::uint32_t a = g.act_off[i]; a < g.act_off[i + 1]; ++a) {
    std::array<double, K> acc;
    acc.fill(1.0);
    for (std::uint32_t o = g.out_off[a]; o < g.out_off[a + 1]; ++o) {
      const std::uint32_t d = g.dest[o];
      const double p = static_cast<double>(g.prob[o]);
      for (std::size_t k = 0; k < K; ++k) acc[k] += p * (is_node(d) ? val[k][d] : 0.0);
    }
    for (std::size_t k = 0; k < K; ++k) {
      best[k] = kMax ? std::max(best[k], acc[k]) : std::min(best[k], acc[k]);
    }
  }
  if constexpr (kMax) {
    for (double& b : best) b = b == -kInf ? kInf : b;
  }
  return best;
}

/// Interval iteration for max reachability probability on the quotient.
/// `pinned[i]` >= 0 fixes node i at that value in both bounds (used for the
/// fair-trap goals of the p_min computation). goal_value is the value of
/// the kGoal terminal; the kUnknown terminal is 0 in the lower bound and 1
/// in the upper bound (that is what "sound on truncated models" means).
/// Returns per-node bounds in lo/hi.
inline Phase iterate_reach_max(const Quotient& q, const std::vector<double>& pinned,
                               double goal_value, const QuantOptions& options,
                               std::vector<double>& lo, std::vector<double>& hi) {
  const std::size_t n = q.num_nodes;
  const int threads = n >= options.seq_sweep_threshold ? options.threads : 1;
  lo.assign(n, 0.0);
  hi.assign(n, 1.0);
  std::vector<double> lo2(n), hi2(n);
  std::vector<std::uint8_t> fixed(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pinned[i] >= 0.0) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = pinned[i];
      fixed[i] = 1;
    } else if (!q.has_actions(i)) {
      lo[i] = hi[i] = lo2[i] = hi2[i] = 0.0;  // no way out: the goal is never reached
      fixed[i] = 1;
    }
  }

  Phase phase;
  if (n == 0) {
    phase.converged = true;
    return phase;
  }
  // Timeline: one slice per reachability phase, with a live bracket-width
  // sample per sweep (mirrored into a timing gauge for the heartbeat
  // sampler — parts-per-billion so it fits the integer metric tables).
  obs::timeline::ScopedSlice phase_slice("quant.reach_phase");
  static obs::Gauge& width_gauge =
      obs::Registry::global().gauge("quant.bracket_width_ppb", obs::Plane::kTiming);
  while (phase.sweeps < options.max_iterations) {
    // One pass: both bounds from one read of each action's outcomes, plus
    // this range's bracket width and movement.
    const auto [width, moved] =
        common::parallel_chunk_max<2>(n, threads, [&](std::size_t a, std::size_t b) {
          double w = 0.0, d = 0.0;
          for (std::size_t i = a; i < b; ++i) {
            if (!fixed[i]) {
              double best_lo = -kInf, best_hi = -kInf;
              for (std::uint32_t act = q.act_off[i]; act < q.act_off[i + 1]; ++act) {
                double acc_lo = 0.0;
                double acc_hi = 0.0;
                for (std::uint32_t o = q.out_off[act]; o < q.out_off[act + 1]; ++o) {
                  const std::uint32_t t = q.dest[o];
                  const double p = static_cast<double>(q.prob[o]);
                  if (t == kGoal) {
                    acc_lo += p * goal_value;
                    acc_hi += p * goal_value;
                  } else if (t == kUnknown) {
                    acc_lo += p * 0.0;
                    acc_hi += p * 1.0;
                  } else {
                    acc_lo += p * lo[t];
                    acc_hi += p * hi[t];
                  }
                }
                best_lo = std::max(best_lo, acc_lo);
                best_hi = std::max(best_hi, acc_hi);
              }
              // has_actions(i), so both maxima are finite. The [0, 1] clamp
              // keeps float rounding honest: outcome probabilities are
              // floats and a row's mass can sum to just above 1, which would
              // otherwise push a "lower bound" past the probability ceiling.
              lo2[i] = std::min(1.0, std::max(lo[i], best_lo));
              hi2[i] = std::max(0.0, std::min(hi[i], best_hi));
            }
            w = std::max(w, hi2[i] - lo2[i]);
            d = std::max(d, std::max(lo2[i] - lo[i], hi[i] - hi2[i]));
          }
          return std::array<double, 2>{w, d};
        });
    lo.swap(lo2);
    hi.swap(hi2);
    ++phase.sweeps;
    obs::timeline::counter_sample("quant.bracket_width", width);
    width_gauge.set(static_cast<std::uint64_t>(width * 1e9));
    if (width <= options.epsilon) {
      phase.converged = true;
      break;
    }
    // Stall detection: when both bounds have (numerically) stopped moving
    // the remaining width is irreducible — frontier mass on a truncated
    // model, or a float-locked gap — and further sweeps cannot certify.
    if (moved <= options.epsilon * 1e-3) break;  // honest non-convergence
  }
  return phase;
}

/// Shared lower-iterate / optimistic-upper-verify driver for the two
/// expected-time kernels over the CSR `g` (bell_time<kMax>); `active(i)`
/// selects the domain; `threads` is the pool width (1 runs every pass
/// inline). On truncated models (`complete` == false) only the lower bound
/// is iterated — frontier states forbid any finite upper certificate.
///
/// The verification step is the OVI argument: if T(U) <= U pointwise then
/// monotone unrolling gives U >= E[truncated k-step cost] for every k, so U
/// bounds the true expectation; afterwards both bounds move monotonically
/// (lower is max-clamped, T keeps the verified upper decreasing) until
/// their gap is <= epsilon on every active, finite element. An element
/// whose LOWER bound diverges to +inf is a certificate of infinity in
/// itself and is excluded from the width test ([inf, inf] has width 0).
template <bool kMax, typename Active>
Phase drive_time_bounds(const Csr& g, bool complete, int threads, const QuantOptions& options,
                        const Active& active, std::vector<double>& lo, std::vector<double>& hi) {
  const std::size_t n = g.num_nodes;
  auto bell = [&g](std::size_t i, const std::vector<double>& val) {
    return bell_time<kMax, 1>(g, static_cast<std::uint32_t>(i), {val.data()})[0];
  };
  lo.assign(n, 0.0);
  hi.assign(n, kInf);
  std::vector<double> lo2(lo), up(n, 0.0), up2(n, 0.0);

  obs::timeline::ScopedSlice phase_slice("quant.time_phase");
  Phase phase;
  // One lower sweep; returns its residual (infinite entries are
  // converged-at-infinity and do not gate it).
  auto sweep_lower = [&] {
    const auto [residual] =
        common::parallel_chunk_max<1>(n, threads, [&](std::size_t a, std::size_t b) {
          double r = 0.0;
          for (std::size_t i = a; i < b; ++i) {
            if (!active(i)) continue;
            lo2[i] = std::max(lo[i], bell(i, lo));
            if (std::isfinite(lo2[i])) r = std::max(r, lo2[i] - lo[i]);
          }
          return std::array<double, 1>{r};
        });
    lo.swap(lo2);
    ++phase.sweeps;
    return residual;
  };

  const std::size_t budget = options.max_iterations;
  if (!complete) {
    while (phase.sweeps < budget) {
      if (sweep_lower() <= options.epsilon / 8.0) break;
    }
    return phase;  // lower bound only; never converged in the certified sense
  }

  // Warm the lower bound until it is nearly stationary, then guess-and-
  // verify upper bounds. The guess inflates MULTIPLICATIVELY: for the
  // unit-cost Bellman operator T(x) = cost + extremum of averages,
  // T((1+d)L) = (1+d)T(L) - d exactly, so T(U) <= U reduces to the residual
  // condition T(L) - L <= d/(1+d) — reachable by plain lower iteration. An
  // ADDITIVE offset can never verify here: probabilities sum to 1, so
  // T(L+c) = T(L)+c wherever no outcome leaves for a terminal. The round
  // cap bounds the damage when no finite upper bound exists (an unnoticed
  // infinite value): each failed round grows the inflation 8x and doubles
  // the warm-up, far more than any converging instance needs.
  double inflate = std::max(options.epsilon, 1e-9);
  std::size_t warm = 64;
  for (int round = 0; round < 24 && phase.sweeps < budget; ++round) {
    for (std::size_t k = 0; k < warm && phase.sweeps < budget; ++k) {
      if (sweep_lower() <= options.epsilon / 8.0) break;
    }

    common::parallel_ranges(n, threads, [&](std::size_t a, std::size_t b) {
      for (std::size_t i = a; i < b; ++i) up[i] = active(i) ? lo[i] * (1.0 + inflate) : 0.0;
    });
    // T(up) <= up on every active element, as a 0/1 maximum of violations.
    const auto [violated] =
        common::parallel_chunk_max<1>(n, threads, [&](std::size_t a, std::size_t b) {
          double v = 0.0;
          for (std::size_t i = a; i < b; ++i) {
            if (!active(i)) continue;
            up2[i] = bell(i, up);
            if (!(up2[i] <= up[i])) v = 1.0;
          }
          return std::array<double, 1>{v};
        });
    ++phase.sweeps;
    if (violated > 0.0) {
      inflate *= 8.0;
      warm *= 2;
      continue;
    }

    // Verified: T(up) <= up, so further applications keep decreasing while
    // staying true upper bounds. Co-iterate both sides down to epsilon,
    // bailing out honestly if the gap float-locks above it. Each sweep is
    // one pass: the lower sweep, the upper sweep and the next gap.
    up.swap(up2);
    double gap = common::parallel_chunk_max<1>(n, threads, [&](std::size_t a, std::size_t b) {
      double w = 0.0;
      for (std::size_t i = a; i < b; ++i) {
        if (active(i) && std::isfinite(lo[i])) w = std::max(w, up[i] - lo[i]);
      }
      return std::array<double, 1>{w};
    })[0];
    double last_gap = kInf;
    int stalls = 0;
    while (phase.sweeps < budget) {
      if (gap <= options.epsilon) {
        phase.converged = true;
        break;
      }
      if (gap >= last_gap) {
        if (++stalls >= 8) break;
      } else {
        stalls = 0;
      }
      last_gap = gap;
      gap = common::parallel_chunk_max<1>(n, threads, [&](std::size_t a, std::size_t b) {
        double w = 0.0;
        for (std::size_t i = a; i < b; ++i) {
          if (!active(i)) continue;
          const auto [t_lo, t_up] =
              bell_time<kMax, 2>(g, static_cast<std::uint32_t>(i), {lo.data(), up.data()});
          lo2[i] = std::max(lo[i], t_lo);
          up2[i] = std::min(up[i], t_up);
          if (std::isfinite(lo2[i])) w = std::max(w, up2[i] - lo2[i]);
        }
        return std::array<double, 1>{w};
      })[0];
      lo.swap(lo2);
      up.swap(up2);
      ++phase.sweeps;
    }
    if (phase.converged) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active(i) && std::isfinite(lo[i])) hi[i] = up[i];
      }
    }
    break;
  }
  return phase;
}

/// Max expected steps on the quotient (each external action costs one
/// step), over the `domain` nodes (quotient-reachable from the initial
/// node; everything a domain node can reach is again in the domain). A
/// dead-end node (no external actions) in the domain gets a +inf lower
/// bound, which propagates soundly through the max.
inline Phase iterate_time_max(const Quotient& q, const std::vector<std::uint8_t>& domain,
                              bool complete, const QuantOptions& options, std::vector<double>& lo,
                              std::vector<double>& hi) {
  const int threads = q.num_nodes >= options.seq_sweep_threshold ? options.threads : 1;
  return drive_time_bounds</*kMax=*/true>(
      q, complete, threads, options, [&](std::size_t i) { return domain[i] != 0; }, lo, hi);
}

/// Membership in e_min's domain: raw states reachable from the initial
/// state through meal-free expanded states only. That is exactly the
/// members of the quotient-reachable nodes: a raw meal-free path maps to a
/// quotient path (MEC-internal steps stay inside one node), and every
/// member of a reached node is reached, since a MEC is strongly connected
/// through its meal-free, non-frontier members.
inline bool in_fragment(const Quotient& fq, const std::vector<std::uint8_t>& node_reach,
                        StateId s) {
  const std::uint32_t c = fq.node_of[s];
  return is_node(c) && node_reach[c] != 0;
}

/// e_min's Bellman system over raw states, compiled once per target: the
/// fragment states minus the `bad` ones (certified Pmax upper bound below
/// 1, where the expectation is infinite), numbered densely in ascending
/// state order. Each state keeps its permitted actions — an action with an
/// outcome in a bad state is forbidden, exactly as the true minimizer
/// forbids it — and each action keeps its outcomes into the system; target
/// outcomes (0 steps left) and frontier outcomes (counted 0 in the lower
/// bound: the truncated continuation could eat immediately) add exactly
/// +0.0 to an accumulator that is >= 1, so they are dropped. A state with
/// no permitted action gets +inf from bell_time: a certificate of infinity
/// that propagates soundly through the min.
struct TimeMinSystem {
  Csr csr;
  std::uint32_t initial = kAbsent;  // dense index of model.initial()
};

template <class ModelT>
TimeMinSystem compile_time_min(const ModelT& model, const Quotient& fq,
                               const std::vector<std::uint8_t>& node_reach,
                               const std::vector<double>& hi_pmax, const QuantOptions& options) {
  const std::size_t n = model.num_states();
  const int phils = model.num_phils();
  const int threads = n >= options.seq_sweep_threshold ? options.threads : 1;
  auto bad_node = [&](std::uint32_t c) { return !hi_pmax.empty() && hi_pmax[c] < 1.0; };
  auto member = [&](std::size_t s) {
    return in_fragment(fq, node_reach, static_cast<StateId>(s)) && !bad_node(fq.node_of[s]);
  };

  // Dense numbering: per-range member counts, a prefix over ranges, then
  // each range numbers its members in ascending order.
  const std::size_t ranges = (n + common::kRangeSize - 1) / common::kRangeSize;
  std::vector<std::uint32_t> range_base(ranges + 1, 0);
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint32_t c = 0;
    for (std::size_t s = lo; s < hi; ++s) c += member(s) ? 1 : 0;
    range_base[lo / common::kRangeSize + 1] = c;
  });
  for (std::size_t r = 0; r < ranges; ++r) range_base[r + 1] += range_base[r];
  const std::uint32_t m = range_base[ranges];
  std::vector<std::uint32_t> index(n, kAbsent);
  std::vector<StateId> state_of(m);
  common::parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint32_t next = range_base[lo / common::kRangeSize];
    for (std::size_t s = lo; s < hi; ++s) {
      if (!member(s)) continue;
      index[s] = next;
      state_of[next++] = static_cast<StateId>(s);
    }
  });

  // Calls fn(begin, end) for every permitted action of state s.
  auto for_each_permitted = [&](StateId s, const auto& fn) {
    for (int p = 0; p < phils; ++p) {
      const auto [begin, end] = model.row(s, p);
      if (begin == end) continue;
      bool ok = true;
      for (const Outcome* o = begin; o != end && ok; ++o) {
        const std::uint32_t c = fq.node_of[o->next];
        ok = !(is_node(c) && bad_node(c));
      }
      if (ok) fn(begin, end);
    }
  };
  auto kept = [&](const Outcome& o) { return is_node(fq.node_of[o.next]); };

  std::vector<std::uint32_t> act_count(m, 0), out_count(m, 0);
  common::parallel_ranges(m, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t acts = 0, outs = 0;
      for_each_permitted(state_of[i], [&](const Outcome* begin, const Outcome* end) {
        ++acts;
        for (const Outcome* o = begin; o != end; ++o) outs += kept(*o) ? 1 : 0;
      });
      act_count[i] = acts;
      out_count[i] = outs;
    }
  });
  std::size_t total_acts = 0, total_outs = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    total_acts += act_count[i];
    total_outs += out_count[i];
  }
  check_csr_offsets(total_acts, "e_min actions");
  check_csr_offsets(total_outs, "e_min outcomes");

  TimeMinSystem sys;
  Csr& g = sys.csr;
  g.num_nodes = m;
  g.act_off.assign(std::size_t{m} + 1, 0);
  std::vector<std::uint32_t> out_base(m, 0);
  std::uint32_t next_out = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    g.act_off[i + 1] = g.act_off[i] + act_count[i];
    out_base[i] = next_out;
    next_out += out_count[i];
  }
  g.out_off.assign(std::size_t{g.act_off[m]} + 1, 0);
  g.prob.resize(next_out);
  g.dest.resize(next_out);
  common::parallel_ranges(m, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t a = g.act_off[i], o_at = out_base[i];
      for_each_permitted(state_of[i], [&](const Outcome* begin, const Outcome* end) {
        for (const Outcome* o = begin; o != end; ++o) {
          if (!kept(*o)) continue;
          GDP_DCHECK(index[o->next] != kAbsent);
          g.prob[o_at] = o->prob;
          g.dest[o_at] = index[o->next];
          ++o_at;
        }
        g.out_off[++a] = o_at;
      });
    }
  });
  sys.initial = index[model.initial()];
  return sys;
}

/// Min expected steps over the compiled e_min system, every step charged.
/// Truncated models (`complete` == false) iterate the lower bound only.
inline Phase iterate_time_min(const TimeMinSystem& sys, bool complete, const QuantOptions& options,
                              std::vector<double>& lo, std::vector<double>& hi) {
  const Csr& g = sys.csr;
  const int threads = g.num_nodes >= options.seq_sweep_threshold ? options.threads : 1;
  return drive_time_bounds</*kMax=*/false>(
      g, complete, threads, options, [](std::size_t) { return true; }, lo, hi);
}

/// Orders the endpoints: double rounding can leave a lower iterate a few
/// ulps above the upper one once both are within epsilon of the true value.
inline Interval make_interval(double lo, double hi) {
  return lo <= hi ? Interval{lo, hi} : Interval{hi, lo};
}

/// The one target-independent piece shared across the targets of one
/// multi-target analyze() call: the full-model quotient p_trap needs (MECs
/// with avoid_set = 0 and the target_terminal = false quotient —
/// build_quotient ignores the target mask there), built lazily on first
/// demand, since targets with no fair avoiding MEC on a complete model
/// never touch it. The decompositions themselves come from the model's
/// MecMemo, which every verdict on the model shares.
struct SharedSweeps {
  bool full_built = false;
  Quotient full_q;

  template <class ModelT>
  void ensure_full(const ModelT& model, const std::vector<bool>& reached,
                   const QuantOptions& options) {
    if (full_built) return;
    std::shared_ptr<const MecList> full_mecs;
    {
      obs::TimedSpan span("quant.mec");
      full_mecs = par::detail::memo_mecs_t(model, 0, options.check_options());
    }
    obs::TimedSpan span("quant.quotient");
    full_q = build_quotient(model, *full_mecs, reached, /*target_mask=*/0,
                            /*target_terminal=*/false, options);
    full_built = true;
  }
};

/// The per-target core: everything in analyze() that depends on the target
/// mask. `reached` is the model's reachable-state set
/// (par::detail::verdict_reachable_t), computed once per analyze() call;
/// `shared` holds the full-model quotient across targets. Each phase runs
/// under its own child span of quant.analyze (quant.mec, quant.quotient,
/// quant.p_max, quant.p_min, quant.e_min, quant.e_max, quant.p_trap).
template <class ModelT>
QuantResult analyze_one(const ModelT& model, std::uint64_t target_set,
                        const QuantOptions& options, const std::vector<bool>& reached,
                        SharedSweeps& shared) {
  obs::TimedSpan span("quant.analyze");
  QuantResult result;
  result.target_set = target_set;
  result.num_states = model.num_states();
  result.epsilon = options.epsilon;

  const bool complete = !model.truncated();

  // MECs of the meal-free fragment, and which of them are fair traps.
  obs::TimedSpan mec_span("quant.mec");
  const std::shared_ptr<const MecList> kept =
      par::detail::memo_mecs_t(model, target_set, options.check_options());
  const MecList& mecs = *kept;
  result.num_avoid_mecs = mecs.size();
  std::vector<std::uint8_t> fair_mec(mecs.size(), 0);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    fair_mec[m] = mecs.fair(m, model.num_phils()) ? 1 : 0;
    result.num_fair_avoid_mecs += fair_mec[m];
  }
  mec_span.stop();

  obs::TimedSpan quotient_span("quant.quotient");
  const Quotient fq =
      build_quotient(model, mecs, reached, target_set, /*target_terminal=*/true, options);
  result.num_quotient_nodes = fq.num_nodes;

  const std::vector<std::uint8_t> node_reach = fq.reachable_nodes();
  std::vector<std::uint8_t> fair_node(fq.num_nodes, 0);
  for (std::size_t m = 0; m < mecs.size(); ++m) {
    if (fair_mec[m] && fq.mec_node[m] >= 0) fair_node[fq.mec_node[m]] = 1;
  }
  for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
    if (fair_node[i] && node_reach[i]) result.fair_trap_reachable = true;
  }
  if (is_node(fq.initial) && fair_node[fq.initial]) result.fair_trap_reachable = true;
  quotient_span.stop();

  const bool initial_target = fq.initial == kGoal;
  const bool initial_unknown = fq.initial == kUnknown || fq.initial == kAbsent;

  bool all_converged = true;
  // One phase's bookkeeping: per-phase sweep slot, the running total, and
  // the stall count (a phase that ran but ended uncertified).
  auto note = [&](std::size_t& slot, const Phase& phase) {
    slot = phase.sweeps;
    result.sweeps += phase.sweeps;
    all_converged = all_converged && phase.converged;
    if (!phase.converged) ++result.stats.stalled_phases;
  };
  std::vector<double> lo, hi;
  std::vector<double> hi_pmax;  // per-node Pmax upper bounds, kept for e_min

  // --- p_max: max P(reach the target eating set). ---
  if (initial_target) {
    result.p_max = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_max = {0.0, 1.0};
    all_converged = false;
  } else {
    obs::TimedSpan phase_span("quant.p_max");
    const std::vector<double> no_pins(fq.num_nodes, -1.0);
    const Phase phase = iterate_reach_max(fq, no_pins, /*goal_value=*/1.0, options, lo, hi_pmax);
    note(result.stats.p_max_sweeps, phase);
    result.p_max = make_interval(lo[fq.initial], hi_pmax[fq.initial]);
  }

  // --- p_min = 1 - Pmax[fragment](reach a fair avoiding MEC). ---
  if (initial_target) {
    result.p_min = {1.0, 1.0};
  } else if (initial_unknown) {
    result.p_min = {0.0, 1.0};
    all_converged = false;
  } else if (!result.fair_trap_reachable && complete) {
    result.p_min = {1.0, 1.0};  // qualitative: no meal-free path to any fair trap
  } else {
    obs::TimedSpan phase_span("quant.p_min");
    std::vector<double> pins(fq.num_nodes, -1.0);
    for (std::uint32_t i = 0; i < fq.num_nodes; ++i) {
      if (fair_node[i]) pins[i] = 1.0;  // the trap itself: confinement is free from here
    }
    // Reaching a meal first escapes the trap for good: kGoal counts 0.
    const Phase phase = iterate_reach_max(fq, pins, /*goal_value=*/0.0, options, lo, hi);
    note(result.stats.p_min_sweeps, phase);
    result.p_min = make_interval(1.0 - hi[fq.initial], 1.0 - lo[fq.initial]);
  }

  // --- e_min: best-case expected steps to the first meal. ---
  if (initial_target) {
    result.e_min = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_min = {0.0, kInf};
    all_converged = false;
  } else if (result.p_max.upper < 1.0) {
    // Pmax < 1 certified (the upper bound is sound even on truncated
    // models): some mass never eats, so the expectation is infinite.
    result.e_min = {kInf, kInf};
  } else {
    obs::TimedSpan phase_span("quant.e_min");
    const TimeMinSystem sys = compile_time_min(model, fq, node_reach, hi_pmax, options);
    const Phase phase = iterate_time_min(sys, complete, options, lo, hi);
    note(result.stats.e_min_sweeps, phase);
    result.e_min = make_interval(lo[sys.initial], hi[sys.initial]);
  }

  // --- e_max: worst-case expected productive steps (see quant.hpp). ---
  if (initial_target) {
    result.e_max = {0.0, 0.0};
  } else if (initial_unknown) {
    result.e_max = {0.0, kInf};
    all_converged = false;
  } else if (result.fair_trap_reachable) {
    // A fair adversary parks in the trap with positive probability and the
    // first meal never comes: infinite, certified by the qualitative BFS.
    result.e_max = {kInf, kInf};
  } else {
    obs::TimedSpan phase_span("quant.e_max");
    const Phase phase = iterate_time_max(fq, node_reach, complete, options, lo, hi);
    note(result.stats.e_max_sweeps, phase);
    result.e_max = make_interval(lo[fq.initial], hi[fq.initial]);
  }

  // --- p_trap: max P(reach a fair avoiding MEC), meals allowed en route. ---
  if (result.num_fair_avoid_mecs == 0 && complete) {
    result.p_trap = {0.0, 0.0};
  } else {
    shared.ensure_full(model, reached, options);
    obs::TimedSpan phase_span("quant.p_trap");
    const Quotient& full_q = shared.full_q;
    // Goal nodes: full-model MEC classes holding a fair-trap state (from
    // anywhere in such a MEC the trap is internally reachable with
    // probability 1, so the whole class counts as reached).
    std::vector<double> pins(full_q.num_nodes, -1.0);
    for (std::size_t m = 0; m < mecs.size(); ++m) {
      if (!fair_mec[m]) continue;
      for (const StateId* s = mecs.begin(m); s != mecs.end(m); ++s) {
        if (reached[*s] && is_node(full_q.node_of[*s])) pins[full_q.node_of[*s]] = 1.0;
      }
    }
    if (full_q.initial == kUnknown || full_q.initial == kAbsent) {
      result.p_trap = {0.0, 1.0};
      all_converged = false;
    } else {
      const Phase phase = iterate_reach_max(full_q, pins, /*goal_value=*/0.0, options, lo, hi);
      note(result.stats.p_trap_sweeps, phase);
      result.p_trap = make_interval(lo[full_q.initial], hi[full_q.initial]);
    }
  }

  result.certainty = !complete           ? Certainty::kTruncated
                     : all_converged     ? Certainty::kCertified
                                         : Certainty::kIterationLimit;

  // Deterministic plane: sweep counts stop on thresholds of residuals
  // folded in range order, so they are thread-count invariant.
  static obs::Counter& analyses = obs::Registry::global().counter("quant.analyses");
  static obs::Counter& sweeps_ctr = obs::Registry::global().counter("quant.sweeps");
  static obs::Counter& stalls_ctr = obs::Registry::global().counter("quant.stalled_phases");
  static obs::Histogram& sweeps_hist = obs::Registry::global().histogram("quant.analysis_sweeps");
  analyses.increment();
  sweeps_ctr.add(result.sweeps);
  stalls_ctr.add(result.stats.stalled_phases);
  sweeps_hist.record(result.sweeps);
  return result;
}

/// Multi-target entry: one QuantResult per target, each bit-identical to
/// the single-target call. Targets run in sequence (each one's sweeps
/// already parallelize over the pool); only the reachable set and the
/// SharedSweeps state cross between them. The one definition both Model
/// and ChunkedModel verdicts go through.
template <class ModelT>
std::vector<QuantResult> analyze_many_t(const ModelT& model,
                                        const std::vector<std::uint64_t>& targets,
                                        const QuantOptions& options) {
  GDP_CHECK_MSG(options.epsilon > 0.0, "quant::analyze needs epsilon > 0");
  for (const std::uint64_t target_set : targets) {
    GDP_CHECK_MSG(target_set != 0, "quant::analyze needs non-empty target sets");
  }
  // A target is one 64-bit mask (bit p = philosopher p): beyond 64
  // philosophers the mask cannot address every philosopher and verdicts
  // would be silently wrong. Model construction refuses such models too;
  // this guards hand-built callers at the mask entry point.
  GDP_CHECK_MSG(model.num_phils() <= 64,
                "quant::analyze: target masks are 64-bit, so at most 64 philosophers are "
                "supported, got "
                    << model.num_phils());
  const std::vector<bool> reached =
      par::detail::verdict_reachable_t(model, options.check_options());
  SharedSweeps shared;
  std::vector<QuantResult> results;
  results.reserve(targets.size());
  for (const std::uint64_t target_set : targets) {
    results.push_back(analyze_one(model, target_set, options, reached, shared));
  }
  return results;
}

template <class ModelT>
QuantResult analyze_t(const ModelT& model, std::uint64_t target_set, const QuantOptions& options) {
  return analyze_many_t(model, std::vector<std::uint64_t>{target_set}, options).front();
}

}  // namespace gdp::mdp::quant::detail
