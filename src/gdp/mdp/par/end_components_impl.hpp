// Template definitions of the parallel MEC decomposition and the parallel
// reachable-states sweep, generalized over any type exposing the Model read
// API. Instantiated for `Model` (par/end_components.cpp) and for
// `store::ChunkedModel` (store.cpp — the chunk-native verdict path, which
// must produce components and reachable sets byte-identical to the
// contiguous path without materializing one).
//
// Same refinement fixpoint as the sequential end_components_impl.hpp: split
// the candidate fragment into SCCs of the usable-action graph (an action is
// usable when every outcome stays in its state's block), drop states with no
// action inside their own SCC, repeat. Three things make it parallel:
//
//   * Every pass over states runs as fixed 4,096-state range tasks that
//     read the model in ascending order (the chunked store streams each
//     chunk in once per pass), and all per-state arrays are 32-bit.
//   * A large block is first trimmed in parallel, as in the first step of
//     Multistep SCC (Slota, Rajamanickam & Madduri, IPDPS 2014): a
//     level-synchronous peel, with atomic degree counters, of the states
//     with no live predecessor or successor. Tarjan splits what is left.
//     Multistep's later steps (a forward-backward pass from a pivot, then
//     min-label coloring) are left out: on the verdict models of the
//     paper's algorithms — deep DAGs of small SCCs — the pivot's SCC is
//     tiny and a coloring round peels a thin layer, and trim followed
//     directly by Tarjan measured no slower than either.
//   * Later rounds re-split only the blocks in which some action stopped
//     being usable (Chatterjee & Henzinger, SODA 2011): a block whose
//     usable actions all stay inside it is strongly connected in its own
//     usable graph and every member keeps an action, so it is already a
//     MEC and drops out. The dirty blocks are bucketed by a counting sort
//     on their label; small ones run Tarjan as parallel tasks, large ones
//     are trimmed and split again.
//
// Determinism: an SCC label is only bookkeeping inside one round (any
// member's index); the labels that persist are the blocks', each the
// smallest surviving member's state id, and the final collection orders
// components by it, which is exactly the first-encounter order of the
// sequential ascending scan. So the returned components (sets, order,
// philosopher masks) are identical to mdp::maximal_end_components for every
// thread count; scheduling only changes traversal order inside a phase.
// Candidate fragments below seq_mec_threshold, and threads = 1, run the
// sequential decomposition outright. Both paths return the flat MecList.
//
// The verdict entry points (check_fair_progress_t here, quant's analyze)
// read decompositions through the model's MecMemo (memo_mecs_t): a
// decomposition depends only on the model and its key, so one explored
// model's progress, lockout and quant verdicts decompose each avoid mask
// once between them. They also skip the reachability sweep on models whose
// every state is reachable by construction (verdict_reachable_t).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gdp/common/check.hpp"
#include "gdp/common/counting_sort.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/mdp/end_components_impl.hpp"
#include "gdp/mdp/fair_progress_impl.hpp"
#include "gdp/mdp/par/par.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::mdp::par::detail {

/// Timing-plane counters of the decomposition. How a block is processed
/// (trim, Tarjan) is a pure function of the block, but the seq-vs-par
/// dispatch keys on the requested worker count, and the sequential
/// fallback records zeros — so the totals describe how the
/// decomposition was *executed*, not what was decomposed, and are not
/// thread-count invariant: timing plane, like the pool counters.
struct MecCounters {
  obs::Counter& trimmed =
      obs::Registry::global().counter("mec.trimmed_states", obs::Plane::kTiming);
  obs::Counter& tarjan_regions =
      obs::Registry::global().counter("mec.tarjan_regions", obs::Plane::kTiming);
  obs::Counter& resplit_blocks =
      obs::Registry::global().counter("mec.resplit_blocks", obs::Plane::kTiming);
  obs::Counter& rounds =
      obs::Registry::global().counter("mec.refinement_rounds", obs::Plane::kTiming);
  static MecCounters& get() {
    static MecCounters instance;
    return instance;
  }
};

inline constexpr std::uint32_t kNone = 0xFFFFFFFFu;
/// block label flag: the block is a finished MEC (labels are < 2^31).
inline constexpr std::uint32_t kFinal = 0x80000000u;
/// Edge flag: the outcome closes its action's outcome list.
inline constexpr std::uint32_t kLastOutcome = 0x80000000u;
inline constexpr std::uint32_t kIdMask = 0x7FFFFFFFu;
/// off[1..m] holds per-item counts; turns off into exclusive offsets
/// (off[0] = 0) with range sums, a scan over the ranges, and a local scan
/// per range. Refuses totals that do not fit the 32-bit offsets.
inline void counts_to_offsets(std::vector<std::uint32_t>& off, int threads) {
  const std::size_t m = off.size() - 1;
  std::vector<std::uint64_t> base((m + common::kRangeSize - 1) / common::kRangeSize + 1, 0);
  common::parallel_ranges(m, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += off[i + 1];
    base[lo / common::kRangeSize + 1] = sum;
  });
  for (std::size_t r = 1; r < base.size(); ++r) base[r] += base[r - 1];
  GDP_CHECK_MSG(base.back() < (std::uint64_t{1} << 32),
                base.back() << " entries do not fit 32-bit offsets (the parallel MEC "
                               "decomposition supports < 2^32 usable edges per round)");
  off[0] = 0;
  common::parallel_ranges(m, threads, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t run = base[lo / common::kRangeSize];
    for (std::size_t i = lo; i < hi; ++i) {
      run += off[i + 1];
      off[i + 1] = static_cast<std::uint32_t>(run);
    }
  });
}

/// The per-task parts of a pass, concatenated in task order.
inline std::vector<std::uint32_t> concat(const std::vector<std::vector<std::uint32_t>>& parts) {
  std::size_t size = 0;
  for (const auto& part : parts) size += part.size();
  std::vector<std::uint32_t> out;
  out.reserve(size);
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// The ascending list of ids i in [0, total) with keep(i). keep runs once
/// per id, in range tasks.
template <class Keep>
std::vector<std::uint32_t> select_ids(std::size_t total, int threads, Keep&& keep) {
  std::vector<std::vector<std::uint32_t>> parts((total + common::kRangeSize - 1) / common::kRangeSize);
  common::parallel_ranges(total, threads, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t>& mine = parts[lo / common::kRangeSize];
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep(static_cast<std::uint32_t>(i))) mine.push_back(static_cast<std::uint32_t>(i));
    }
  });
  return concat(parts);
}

/// select_ids over the entries of `list` (kept in list order).
template <class Keep>
std::vector<std::uint32_t> select_from(const std::vector<std::uint32_t>& list, int threads,
                                       Keep&& keep) {
  std::vector<std::uint32_t> positions =
      select_ids(list.size(), threads, [&](std::uint32_t k) { return keep(list[k]); });
  for (std::uint32_t& k : positions) k = list[k];
  return positions;
}

/// One wave of a worklist: visit(item, out) for every item, returning the
/// pushes concatenated in range order. Waves of at most one range run on
/// the calling thread.
template <class Visit>
std::vector<std::uint32_t> one_wave(const std::vector<std::uint32_t>& items, int threads,
                                    Visit&& visit) {
  std::vector<std::uint32_t> out;
  if (items.size() <= common::kRangeSize) {
    for (const std::uint32_t item : items) visit(item, out);
    return out;
  }
  std::vector<std::vector<std::uint32_t>> parts((items.size() + common::kRangeSize - 1) /
                                                common::kRangeSize);
  common::parallel_ranges(items.size(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) visit(items[k], parts[lo / common::kRangeSize]);
  });
  return concat(parts);
}

/// Level-synchronous worklist: visit(item, next) runs for every item of the
/// current wave and pushes the next wave's items. Callers dedupe pushes
/// with atomic claims.
template <class Visit>
void run_waves(std::vector<std::uint32_t> wave, int threads, Visit&& visit) {
  while (!wave.empty()) wave = one_wave(wave, threads, visit);
}

/// Relaxed atomic read of a slot other tasks may write in the same pass.
template <class T>
T load(T& x) {
  return std::atomic_ref<T>(x).load(std::memory_order_relaxed);
}
/// Lowers x to v; true when this call changed it.
inline bool lower_to(std::uint32_t& x, std::uint32_t v) {
  std::atomic_ref<std::uint32_t> ref(x);
  std::uint32_t cur = ref.load(std::memory_order_relaxed);
  while (v < cur) {
    if (ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) return true;
  }
  return false;
}

/// One parallel decomposition (see the file comment). All graph arrays are
/// in the *local* index space of the current round: local i is the i-th
/// state of the ascending active list, so the smallest local index of a
/// set is also its smallest state id.
template <class ModelT>
class MecDecomposition {
 public:
  MecDecomposition(const ModelT& model, std::vector<std::uint32_t> candidates,
                   const CheckOptions& options)
      : model_(model),
        threads_(options.threads),
        region_(std::max<std::size_t>(options.seq_scc_region, 1)),
        active_(std::move(candidates)) {}

  MecList run() {
    const std::size_t n = model_.num_states();
    block_.assign(n, kNone);
    local_.assign(n, kNone);
    const std::uint32_t first = active_.front();
    common::parallel_ranges(active_.size(), threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) block_[active_[i]] = first;
    });
    for (bool first_round = true; !active_.empty(); first_round = false) {
      MecCounters::get().rounds.increment();
      build_graph();
      {
        obs::TimedSpan span(first_round ? "mec.first_scc" : "mec.resplit");
        split_blocks();
      }
      filter_survivors();
      next_round();
    }
    return collect();
  }

 private:
  /// Forward CSR of the usable-action graph over the active states, each
  /// action's outcomes consecutive and the last one flagged kLastOutcome.
  /// One ascending model read into per-range buffers, then a copy into
  /// place.
  void build_graph() {
    obs::TimedSpan span("mec.graph");
    const std::size_t m = active_.size();
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) local_[active_[i]] = static_cast<std::uint32_t>(i);
    });
    off_.assign(m + 1, 0);
    std::vector<std::vector<std::uint32_t>> parts((m + common::kRangeSize - 1) / common::kRangeSize);
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t hi) {
      std::vector<std::uint32_t>& mine = parts[lo / common::kRangeSize];
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t before = mine.size();
        for_each_usable(active_[i], [&](const Outcome* begin, const Outcome* end) {
          for (const Outcome* o = begin; o != end; ++o) {
            mine.push_back(local_[o->next] | (o + 1 == end ? kLastOutcome : 0));
          }
        });
        off_[i + 1] = static_cast<std::uint32_t>(mine.size() - before);
      }
    });
    counts_to_offsets(off_, threads_);
    edges_.resize(off_[m]);
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t) {
      std::vector<std::uint32_t>& mine = parts[lo / common::kRangeSize];
      std::copy(mine.begin(), mine.end(), edges_.begin() + off_[lo]);
      std::vector<std::uint32_t>().swap(mine);
    });
    reversed_ = false;
  }

  /// The reverse of the usable-action graph, built on first use in a round
  /// (only the trim walks edges backward). The order inside a list depends
  /// on scheduling, which only perturbs traversal order.
  void build_reverse() {
    if (reversed_) return;
    reversed_ = true;
    const std::size_t m = active_.size();
    roff_.assign(m + 1, 0);
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = off_[lo]; e < off_[hi]; ++e) {
        std::atomic_ref<std::uint32_t>(roff_[(edges_[e] & kIdMask) + 1])
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
    counts_to_offsets(roff_, threads_);
    redges_.resize(edges_.size());
    std::vector<std::uint32_t> cursor(roff_.begin(), roff_.end() - 1);
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t e = off_[i]; e < off_[i + 1]; ++e) {
          const std::uint32_t at = std::atomic_ref<std::uint32_t>(cursor[edges_[e] & kIdMask])
                                       .fetch_add(1, std::memory_order_relaxed);
          redges_[at] = static_cast<std::uint32_t>(i);
        }
      }
    });
  }

  /// fn(begin, end) for every action of s whose outcomes all stay in s's
  /// block.
  template <typename Fn>
  void for_each_usable(StateId s, Fn&& fn) const {
    const std::uint32_t b = block_[s];
    for (int p = 0; p < model_.num_phils(); ++p) {
      const auto [begin, end] = model_.row(s, p);
      if (begin == end) continue;
      bool usable = true;
      for (const Outcome* o = begin; o != end && usable; ++o) usable = block_[o->next] == b;
      if (usable) fn(begin, end);
    }
  }

  /// SCC labels (some member's local index) into scc_ for every active
  /// state.
  /// Usable edges never leave a block, so blocks are independent problems:
  /// singletons label themselves, small blocks run Tarjan as parallel
  /// tasks, large ones are trimmed and split one after another.
  void split_blocks() {
    const std::size_t m = active_.size();
    scc_.assign(m, kNone);
    a_.assign(m, 0);
    b_.assign(m, 0);
    mark_.assign(m, kLive);
    const common::Buckets blocks = common::counting_sort(
        m, m, [&](std::uint32_t i) { return local_[block_[active_[i]]]; });
    std::vector<std::size_t> small;  // keys of Tarjan blocks, in key order
    std::vector<std::size_t> large;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t size = blocks.size(k);
      if (size == 1) {
        const std::uint32_t i = *blocks.begin(k);
        scc_[i] = i;
        mark_[i] = 0;
      } else if (size > region_) {
        large.push_back(k);
      } else if (size > 1) {
        small.push_back(k);
      }
    }
    MecCounters& ctr = MecCounters::get();
    ctr.resplit_blocks.add(small.size() + large.size());
    ctr.tarjan_regions.add(small.size());

    // Consecutive small blocks packed into tasks of about kRangeSize states.
    std::vector<std::size_t> task_start{0};
    for (std::size_t j = 0, states = 0; j < small.size(); ++j) {
      states += blocks.size(small[j]);
      if (states >= common::kRangeSize) {
        task_start.push_back(j + 1);
        states = 0;
      }
    }
    if (task_start.back() != small.size()) task_start.push_back(small.size());
    const auto tarjan_task = [&](std::size_t t) {
      TarjanScratch scratch;
      for (std::size_t j = task_start[t]; j < task_start[t + 1]; ++j) {
        tarjan(blocks.begin(small[j]), blocks.end(small[j]), scratch);
      }
    };
    common::parallel_for(task_start.size() - 1, threads_, tarjan_task);

    for (const std::size_t k : large) {
      split_large(std::vector<std::uint32_t>(blocks.begin(k), blocks.end(k)));
    }
  }

  /// SCCs of one large block's live states (ascending local ids): a
  /// parallel trim, then Tarjan on what is left.
  void split_large(std::vector<std::uint32_t> live) {
    build_reverse();
    live = trim(live);
    if (!live.empty()) {
      MecCounters::get().tarjan_regions.increment();
      for (const std::uint32_t i : live) a_[i] = 0;
      TarjanScratch scratch;
      tarjan(live.data(), live.data() + live.size(), scratch);
    }
  }

  /// Peels states with no live predecessor or no live successor — they lie
  /// on no cycle, so each is its own SCC — level by level, with atomic
  /// degree counters; returns the states left.
  std::vector<std::uint32_t> trim(const std::vector<std::uint32_t>& live) {
    obs::TimedSpan span("mec.trim");
    std::uint32_t* indeg = a_.data();
    std::uint32_t* outdeg = b_.data();
    std::vector<std::uint32_t> wave = select_from(live, threads_, [&](std::uint32_t i) {
      indeg[i] = roff_[i + 1] - roff_[i];
      outdeg[i] = off_[i + 1] - off_[i];
      return indeg[i] == 0 || outdeg[i] == 0;
    });
    std::atomic<std::uint64_t> trimmed{0};
    run_waves(std::move(wave), threads_,
              [&](std::uint32_t i, std::vector<std::uint32_t>& next) {
                if (!clear_flag(i, kLive)) return;
                scc_[i] = i;
                trimmed.fetch_add(1, std::memory_order_relaxed);
                for (std::uint32_t e = off_[i]; e < off_[i + 1]; ++e) {
                  const std::uint32_t j = edges_[e] & kIdMask;
                  if ((load(mark_[j]) & kLive) &&
                      std::atomic_ref<std::uint32_t>(indeg[j]).fetch_sub(
                          1, std::memory_order_relaxed) == 1) {
                    next.push_back(j);
                  }
                }
                for (std::uint32_t e = roff_[i]; e < roff_[i + 1]; ++e) {
                  const std::uint32_t j = redges_[e];
                  if ((load(mark_[j]) & kLive) &&
                      std::atomic_ref<std::uint32_t>(outdeg[j]).fetch_sub(
                          1, std::memory_order_relaxed) == 1) {
                    next.push_back(j);
                  }
                }
              });
    const std::uint64_t peeled = trimmed.load(std::memory_order_relaxed);
    MecCounters::get().trimmed.add(peeled);
    if (peeled > 0) {
      obs::timeline::counter_sample("mec.trimmed_states", static_cast<double>(peeled));
    }
    return select_from(live, threads_, [&](std::uint32_t i) { return (mark_[i] & kLive) != 0; });
  }

  struct TarjanScratch {
    struct Frame {
      std::uint32_t v;
      std::uint32_t edge;
    };
    std::vector<Frame> frames;
    std::vector<std::uint32_t> stack;
  };

  /// Iterative Tarjan from every live state of [begin, end) (whose
  /// index slot a_ must be 0), over edges to live states only. a_ holds
  /// DFS indices and b_ low links; a popped SCC takes its root as label and
  /// loses kLive, so "live and visited" means "on the stack". Tasks own
  /// disjoint blocks, so their slots never overlap.
  void tarjan(const std::uint32_t* begin, const std::uint32_t* end, TarjanScratch& t) {
    std::uint32_t counter = 0;
    const auto push = [&](std::uint32_t v) {
      a_[v] = b_[v] = ++counter;
      t.stack.push_back(v);
      t.frames.push_back({v, off_[v]});
    };
    for (const std::uint32_t* root = begin; root != end; ++root) {
      if (a_[*root] != 0 || !(mark_[*root] & kLive)) continue;
      push(*root);
      while (!t.frames.empty()) {
        auto& frame = t.frames.back();
        const std::uint32_t v = frame.v;
        if (frame.edge < off_[v + 1]) {
          const std::uint32_t w = edges_[frame.edge++] & kIdMask;
          if (!(mark_[w] & kLive)) continue;
          if (a_[w] == 0) {
            push(w);
          } else {
            b_[v] = std::min(b_[v], a_[w]);
          }
          continue;
        }
        t.frames.pop_back();
        if (!t.frames.empty()) {
          const std::uint32_t parent = t.frames.back().v;
          b_[parent] = std::min(b_[parent], b_[v]);
        }
        if (b_[v] != a_[v]) continue;
        std::size_t first = t.stack.size();
        do {
          --first;
        } while (t.stack[first] != v);
        for (std::size_t k = first; k < t.stack.size(); ++k) {
          scc_[t.stack[k]] = v;
          mark_[t.stack[k]] = 0;
        }
        t.stack.resize(first);
      }
    }
  }

  /// True iff some action of i keeps every outcome inside i's SCC.
  bool has_inside_action(std::uint32_t i) const {
    bool inside = true;
    for (std::uint32_t e = off_[i]; e < off_[i + 1]; ++e) {
      inside = inside && scc_[edges_[e] & kIdMask] == scc_[i];
      if (edges_[e] & kLastOutcome) {
        if (inside) return true;
        inside = true;
      }
    }
    return false;
  }

  /// Drops every state with no action inside its own SCC, deciding on a
  /// snapshot. A drop can strand a predecessor's last inside action; that
  /// action is then no longer usable, its block is re-split next round, and
  /// the predecessor drops there.
  void filter_survivors() {
    obs::TimedSpan span("mec.survival");
    const std::vector<std::uint32_t> dropped = select_ids(
        active_.size(), threads_, [&](std::uint32_t i) { return !has_inside_action(i); });
    for (const std::uint32_t i : dropped) scc_[i] = kNone;
  }

  /// Labels the next round: each surviving block takes its smallest
  /// surviving member's state id; a block in which some usable action now
  /// leaves its SCC is re-split next round, every other block is a finished
  /// MEC (kFinal) and drops out of the active list.
  void next_round() {
    const std::size_t m = active_.size();
    std::uint32_t* smallest = a_.data();
    std::uint8_t* dirty = mark_.data();
    std::fill(a_.begin(), a_.end(), kNone);
    std::fill(mark_.begin(), mark_.end(), 0);
    common::parallel_ranges(m, threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t label = scc_[i];
        if (label == kNone) continue;
        lower_to(smallest[label], static_cast<std::uint32_t>(i));
        for (std::uint32_t e = off_[i]; e < off_[i + 1]; ++e) {
          if (scc_[edges_[e] & kIdMask] != label) {
            std::atomic_ref<std::uint8_t>(dirty[label]).store(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
    std::vector<std::uint32_t> next = select_ids(m, threads_, [&](std::uint32_t i) {
      const StateId s = active_[i];
      const std::uint32_t label = scc_[i];
      if (label == kNone) {
        block_[s] = kNone;
        return false;
      }
      const std::uint32_t id = active_[smallest[label]];
      const bool resplit = dirty[label] != 0;
      block_[s] = resplit ? id : (id | kFinal);
      return resplit;
    });
    for (std::uint32_t& i : next) i = active_[i];
    active_.swap(next);
  }

  /// The finished MECs, ordered by smallest member (the sequential scan's
  /// first-encounter order), states ascending, with philosopher masks.
  MecList collect() {
    obs::TimedSpan span("mec.collect");
    const std::size_t n = model_.num_states();
    const std::vector<std::uint32_t> roots = select_ids(n, threads_, [&](std::uint32_t s) {
      return block_[s] != kNone && (block_[s] & kIdMask) == s;
    });
    // local_ is free now: it maps each root to its component index.
    common::parallel_ranges(roots.size(), threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) local_[roots[k]] = static_cast<std::uint32_t>(k);
    });
    MecList mecs;
    mecs.phil_mask.assign(roots.size(), 0);
    mecs.offsets.assign(roots.size() + 1, 0);
    common::parallel_ranges(n, threads_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        const std::uint32_t b = block_[s];
        if (b == kNone) continue;
        const std::uint32_t k = local_[b & kIdMask];
        std::atomic_ref<std::uint32_t>(mecs.offsets[k + 1])
            .fetch_add(1, std::memory_order_relaxed);
        std::uint64_t mask = 0;
        for (int p = 0; p < model_.num_phils() && p < 64; ++p) {
          const auto [begin, end] = model_.row(static_cast<StateId>(s), p);
          if (begin == end) continue;
          bool inside = true;
          for (const Outcome* o = begin; o != end && inside; ++o) inside = block_[o->next] == b;
          if (inside) mask |= std::uint64_t{1} << p;
        }
        if (mask != 0) {
          std::atomic_ref<std::uint64_t>(mecs.phil_mask[k])
              .fetch_or(mask, std::memory_order_relaxed);
        }
      }
    });
    counts_to_offsets(mecs.offsets, threads_);
    mecs.states.resize(mecs.offsets.back());
    std::vector<std::uint32_t> cursor(mecs.offsets.begin(), mecs.offsets.end() - 1);
    for (StateId s = 0; s < n; ++s) {
      if (block_[s] != kNone) mecs.states[cursor[local_[block_[s] & kIdMask]]++] = s;
    }
    return mecs;
  }

  static constexpr std::uint8_t kLive = 1;

  /// Clears `flag` on i; true iff this call cleared it.
  bool clear_flag(std::uint32_t i, std::uint8_t flag) {
    return (std::atomic_ref<std::uint8_t>(mark_[i]).fetch_and(
                static_cast<std::uint8_t>(~flag), std::memory_order_relaxed) &
            flag) != 0;
  }

  const ModelT& model_;
  int threads_;
  std::size_t region_;  // blocks up to this size skip the trim

  std::vector<std::uint32_t> block_;   // state -> block label (| kFinal), kNone when dropped
  std::vector<std::uint32_t> local_;   // state -> local index this round
  std::vector<std::uint32_t> active_;  // ascending states of the blocks being split

  // Local index space of the current round.
  std::vector<std::uint32_t> off_, edges_;    // usable-action graph
  std::vector<std::uint32_t> roff_, redges_;  // its reverse, when reversed_
  bool reversed_ = false;
  std::vector<std::uint32_t> scc_;            // SCC label, kNone once dropped
  std::vector<std::uint32_t> a_, b_;          // per-phase scratch (degrees, DFS)
  std::vector<std::uint8_t> mark_;            // kLive, or the dirty flag in next_round
};

/// The MEC decomposition of the non-`avoid_set`-eating fragment, computed
/// fresh (the uncached primitive behind par::maximal_end_components).
template <class ModelT>
MecList maximal_end_components_t(const ModelT& model, std::uint64_t avoid_set,
                                 const CheckOptions& options) {
  const std::size_t n = model.num_states();
  GDP_CHECK_MSG(n < (std::uint64_t{1} << 31), "parallel MEC decomposition supports < 2^31 states");
  if (common::effective_threads(options.threads, n) <= 1 || n < options.seq_mec_threshold) {
    return MecList::from(mdp::detail::maximal_end_components_t(model, avoid_set));
  }
  // Candidate fragment: expanded states where no avoid_set member eats.
  std::vector<std::uint32_t> candidates = select_ids(n, options.threads, [&](std::uint32_t s) {
    return (model.eaters(s) & avoid_set) == 0 && !model.frontier(s);
  });
  if (common::effective_threads(options.threads, candidates.size()) <= 1 ||
      candidates.size() < options.seq_mec_threshold) {
    return MecList::from(mdp::detail::maximal_end_components_t(model, avoid_set));
  }
  obs::TimedSpan span("mec.decompose");
  return MecDecomposition<ModelT>(model, std::move(candidates), options).run();
}

/// maximal_end_components_t read through the model's MecMemo: a repeat of
/// an earlier call with the same mask and execution options returns the
/// kept result. A result that would lift the memo past the model's own
/// outcome bytes is returned but not kept. mdp.mec_memo.hits / misses count
/// the two cases (deterministic for a given sequence of calls).
template <class ModelT>
std::shared_ptr<const MecList> memo_mecs_t(const ModelT& model, std::uint64_t avoid_set,
                                           const CheckOptions& options) {
  static obs::Counter& hits = obs::Registry::global().counter("mdp.mec_memo.hits");
  static obs::Counter& misses = obs::Registry::global().counter("mdp.mec_memo.misses");
  const mdp::detail::MecKey key{avoid_set,
                                common::effective_threads(options.threads, model.num_states()),
                                options.seq_mec_threshold, options.seq_scc_region};
  mdp::detail::MecMemo& memo = model.mec_memo();
  if (std::shared_ptr<const MecList> kept = memo.find(key)) {
    hits.increment();
    return kept;
  }
  misses.increment();
  auto mecs = std::make_shared<const MecList>(maximal_end_components_t(model, avoid_set, options));
  memo.keep(key, mecs, model.num_outcomes() * sizeof(Outcome));
  return mecs;
}

template <class ModelT>
std::vector<bool> reachable_states_t(const ModelT& model, const CheckOptions& options) {
  const std::size_t n = model.num_states();
  const unsigned workers = common::effective_threads(options.threads, n);
  if (workers <= 1 || n < options.seq_mec_threshold) {
    return mdp::detail::reachable_states_t(model);
  }

  // Level-synchronous BFS: each level fans its frontier out over the pool,
  // claiming discoveries through atomic flags. The claimed *set* is the
  // reachable set no matter how the claims interleave, and levels join
  // before the flags are read non-atomically again.
  std::vector<unsigned char> reached(n, 0);
  std::vector<StateId> frontier{model.initial()};
  reached[model.initial()] = 1;

  // Below this, spawn/steal overhead beats the scan.
  constexpr std::size_t kSeqLevel = 2'048;

  std::vector<StateId> next;
  while (!frontier.empty()) {
    next.clear();
    if (frontier.size() < kSeqLevel) {
      for (const StateId s : frontier) {
        for (int p = 0; p < model.num_phils(); ++p) {
          const auto [begin, end] = model.row(s, p);
          for (const Outcome* o = begin; o != end; ++o) {
            if (!reached[o->next]) {
              reached[o->next] = 1;
              next.push_back(o->next);
            }
          }
        }
      }
    } else {
      const std::size_t chunks = std::min<std::size_t>(frontier.size() / 512, workers * 4);
      std::vector<std::vector<StateId>> found(chunks);
      common::parallel_for(chunks, options.threads, [&](std::uint32_t c) {
        std::vector<StateId>& mine = found[c];
        for (std::size_t i = c; i < frontier.size(); i += chunks) {
          const StateId s = frontier[i];
          for (int p = 0; p < model.num_phils(); ++p) {
            const auto [begin, end] = model.row(s, p);
            for (const Outcome* o = begin; o != end; ++o) {
              std::atomic_ref<unsigned char> flag(reached[o->next]);
              if (flag.load(std::memory_order_relaxed) == 0 &&
                  flag.exchange(1, std::memory_order_relaxed) == 0) {
                mine.push_back(o->next);
              }
            }
          }
        }
      });
      for (const std::vector<StateId>& mine : found) {
        next.insert(next.end(), mine.begin(), mine.end());
      }
    }
    frontier.swap(next);
  }
  return std::vector<bool>(reached.begin(), reached.end());
}

/// The reachable-state set the verdicts read: all-true without a sweep on
/// models whose every state is reachable by construction (explored ones),
/// the sweep otherwise.
template <class ModelT>
std::vector<bool> verdict_reachable_t(const ModelT& model, const CheckOptions& options) {
  if (!model.all_states_reachable()) return reachable_states_t(model, options);
  std::vector<bool> all(model.num_states(), true);
  GDP_DCHECK(reachable_states_t(model, options) == all);
  return all;
}

template <class ModelT>
FairProgressResult check_fair_progress_t(const ModelT& model, std::uint64_t set_mask,
                                         const CheckOptions& options) {
  return mdp::detail::verdict_from_mecs_t(model, set_mask, *memo_mecs_t(model, set_mask, options),
                                          verdict_reachable_t(model, options));
}

}  // namespace gdp::mdp::par::detail
