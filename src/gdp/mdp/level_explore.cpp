#include "gdp/mdp/level_explore.hpp"

#include <algorithm>
#include <bit>

#include "gdp/common/check.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"
#include "gdp/sim/state.hpp"
#include "gdp/sim/step.hpp"

namespace gdp::mdp::detail {

namespace {

/// States per expand task. Fixed, so a level's blocks — and every buffer
/// filled per block — never depend on the thread count.
constexpr std::size_t kBlockStates = 256;

bool same_key(const std::uint64_t* a, const std::uint64_t* b, std::size_t kw) {
  for (std::size_t i = 0; i < kw; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// The smallest power of two >= max(kMinSlots, 2 * keys): the slot count
/// that keeps `keys` at load <= 1/2.
std::size_t slots_for(std::size_t keys) {
  return std::max(InternTable::kMinSlots, std::bit_ceil(2 * keys));
}

/// One run of up to kBlockStates consecutive level states: its expansion
/// scratch and its outputs. Blocks are reused level after level, so in the
/// steady state a level allocates nothing.
struct Block {
  // Expansion scratch: the decoded state, its branches, a successor's key.
  sim::SimState state;
  sim::BranchBuffer branches;
  PackedKey key;

  // Successors in (state, philosopher, branch) order.
  std::vector<float> probs;
  std::vector<StateId> targets;         // table hit, or kNoState until resolved
  std::vector<std::uint32_t> row_ends;  // per (state, philosopher): end in probs

  // Misses: successors whose key the table did not hold before this level.
  std::vector<std::uint64_t> miss_keys;  // key_words() words per miss
  std::vector<std::uint64_t> miss_hashes;
  std::vector<std::uint64_t> miss_eaters;
  std::vector<std::uint32_t> miss_succ;   // index into probs/targets
  std::vector<std::uint32_t> miss_entry;  // the key's entry in its shard's level list
  std::vector<std::uint8_t> miss_first;   // 1 iff the key's first occurrence in the level
  std::vector<std::uint32_t> by_shard;     // miss indices, stable-sorted by shard
  std::vector<std::uint32_t> shard_begin;  // kShards + 1 offsets into by_shard

  std::size_t succ_base = 0;  // level offset of this block's first successor

  /// Room for `succs` successors and `misses` misses of `kw`-word keys.
  void reserve(std::size_t succs, std::size_t misses, std::size_t rows, std::size_t kw) {
    probs.reserve(succs);
    targets.reserve(succs);
    row_ends.reserve(rows);
    miss_keys.reserve(misses * kw);
    miss_hashes.reserve(misses);
    miss_eaters.reserve(misses);
    miss_succ.reserve(misses);
    miss_entry.reserve(misses);
    miss_first.reserve(misses);
    by_shard.reserve(misses);
    shard_begin.reserve(InternTable::kShards + 1);
  }
};

/// A key new in this level, at its first occurrence.
struct Entry {
  const std::uint64_t* key;  // into the first occurrence's Block::miss_keys
  std::uint64_t hash;
  StateId id;
};

/// One shard's distinct new keys of a level, in first-occurrence order, and
/// a linear-probing index over them.
struct LevelShard {
  std::vector<Entry> entries;
  std::vector<std::uint32_t> slots;  // entry index, or kNoState
};

}  // namespace

StateId reserve_id_range(std::size_t num_states, std::size_t count) {
  GDP_CHECK_MSG(num_states <= kNoState && count <= kNoState - num_states,
                "exploration reached " << num_states << " + " << count
                                       << " states; state ids are 32-bit and at most "
                                       << kNoState << " states fit");
  return static_cast<StateId>(num_states);
}

// ---------------------------------------------------------------------------
// InternTable
// ---------------------------------------------------------------------------

void InternTable::assign(std::size_t key_words, std::vector<std::uint64_t> arena) {
  GDP_CHECK_MSG(key_words > 0 && arena.size() % key_words == 0,
                "intern table: " << arena.size() << " words is not a whole number of "
                                 << key_words << "-word keys");
  kw_ = key_words;
  arena_ = std::move(arena);
  reserve_id_range(0, size());
  shards_.assign(kShards, Shard{});
  for (Shard& shard : shards_) shard.slots.assign(kMinSlots, kNoState);
  for (std::size_t id = 0; id < size(); ++id) {
    const std::uint64_t h = key_hash(key(static_cast<StateId>(id)), kw_);
    GDP_CHECK_MSG(find(key(static_cast<StateId>(id)), h) == kNoState,
                  "intern table: duplicate key at state " << id);
    insert(static_cast<StateId>(id), h);
  }
}

StateId InternTable::find(const std::uint64_t* words, std::uint64_t hash) const {
  const std::vector<StateId>& slots = shards_[shard_of(hash)].slots;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const StateId id = slots[i];
    if (id == kNoState || same_key(key(id), words, kw_)) return id;
  }
}

StateId InternTable::grow(std::size_t count) {
  const StateId first = reserve_id_range(size(), count);
  arena_.resize(arena_.size() + count * kw_);
  return first;
}

void InternTable::reserve(std::size_t shard, std::size_t extra) {
  Shard& s = shards_[shard];
  if (s.slots.size() < slots_for(s.count + extra)) rehash(s, slots_for(s.count + extra));
}

void InternTable::insert(StateId id, std::uint64_t hash) {
  Shard& shard = shards_[shard_of(hash)];
  ++shard.count;
  if (shard.slots.size() < slots_for(shard.count)) rehash(shard, slots_for(shard.count));
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t i = hash & mask;
  while (shard.slots[i] != kNoState) i = (i + 1) & mask;
  shard.slots[i] = id;
}

void InternTable::rehash(Shard& shard, std::size_t slots) {
  std::vector<StateId> old = std::move(shard.slots);
  shard.slots.assign(slots, kNoState);
  const std::size_t mask = slots - 1;
  for (const StateId id : old) {
    if (id == kNoState) continue;
    std::size_t i = key_hash(key(id), kw_) & mask;
    while (shard.slots[i] != kNoState) i = (i + 1) & mask;
    shard.slots[i] = id;
  }
}

std::size_t InternTable::bytes() const {
  std::size_t slots = 0;
  for (const Shard& shard : shards_) slots += shard.slots.size();
  return arena_.size() * sizeof(std::uint64_t) + slots * sizeof(StateId);
}

// ---------------------------------------------------------------------------
// LevelExplorer
// ---------------------------------------------------------------------------

LevelExplorer::LevelExplorer(const algos::Algorithm& algo, const graph::Topology& t)
    : algo_(algo), topology_(t) {
  GDP_CHECK_MSG(algo.config().think == algos::ThinkMode::kHungry,
                "MDP exploration requires ThinkMode::kHungry");
  // eater_mask/target_mask are one 64-bit word; beyond 64 philosophers they
  // would alias onto bit 63 and verdicts would be silently wrong.
  GDP_CHECK_MSG(t.num_phils() <= 64, "exploration supports at most 64 philosophers (the "
                                     "eater/target masks are 64-bit), got "
                                         << t.num_phils());
  codec_ = KeyCodec(algo, t);
  const sim::SimState initial = algo.initial_state(t);
  const PackedKey key = codec_.encode(initial);
  table_.assign(key.words(), std::vector<std::uint64_t>(key.data(), key.data() + key.words()));
  eaters_.push_back(sim::eater_mask(initial));
}

void LevelExplorer::run(std::size_t max_states, int threads) {
  const std::size_t n = static_cast<std::size_t>(topology_.num_phils());
  const std::size_t kw = codec_.key_words();
  constexpr std::size_t kShards = InternTable::kShards;
  truncated_ = false;

  // Deterministic plane: levels, states, edges and the per-level size
  // distribution are pure functions of (algorithm, topology, max_states) —
  // the level structure never depends on the thread count. So is the intern
  // footprint: every shard's size is a function of its key count. The
  // spans are wall clock (timing plane).
  static obs::Counter& levels_ctr = obs::Registry::global().counter("explore.levels");
  static obs::Counter& states_ctr = obs::Registry::global().counter("explore.states");
  static obs::Counter& edges_ctr = obs::Registry::global().counter("explore.edges");
  static obs::Counter& truncations_ctr = obs::Registry::global().counter("explore.truncations");
  static obs::Histogram& level_states = obs::Registry::global().histogram("explore.level_states");
  static obs::Gauge& intern_bytes = obs::Registry::global().gauge("explore.intern_bytes_peak");
  obs::TimedSpan run_span("explore.run");

  std::vector<Block> blocks;
  std::vector<LevelShard> level_shards(kShards);
  // The largest block of the levels so far. Blocks are sized for it on
  // this thread before each expand: memory a pool worker allocates stays in
  // that worker's malloc arena once freed, where the analyses that follow
  // the exploration cannot reuse it.
  std::size_t max_succs = 0;
  std::size_t max_misses = 0;
  while (num_expanded_ < table_.size()) {
    if (table_.size() >= max_states) {
      // Cap reached at a level boundary: stop before the next level. Every
      // state is either fully expanded or untouched frontier, so the capped
      // model is a pure function of (algorithm, topology, max_states).
      truncated_ = true;
      truncations_ctr.increment();
      break;
    }
    const std::size_t begin = num_expanded_;
    const std::size_t count = table_.size() - begin;
    const std::size_t num_blocks = (count + kBlockStates - 1) / kBlockStates;
    // A one-block level is too small to repay waking the pool.
    const int level_threads = num_blocks > 1 ? threads : 1;
    if (blocks.size() < num_blocks) blocks.resize(num_blocks);
    for (std::size_t bi = 0; bi < num_blocks; ++bi) {
      blocks[bi].reserve(max_succs, max_misses, kBlockStates * n, kw);
    }
    obs::TimedSpan level_span("explore.level");

    // 1. Expand each block's states and look their successors up in the
    // table, which nobody writes until step 4.
    obs::TimedSpan expand_span("explore.expand");
    common::parallel_for(num_blocks, level_threads, [&](std::uint32_t bi) {
      Block& b = blocks[bi];
      b.probs.clear();
      b.targets.clear();
      b.row_ends.clear();
      b.miss_keys.clear();
      b.miss_hashes.clear();
      b.miss_eaters.clear();
      b.miss_succ.clear();
      const std::size_t lo = begin + std::size_t{bi} * kBlockStates;
      const std::size_t hi = std::min(lo + kBlockStates, begin + count);
      for (std::size_t s = lo; s < hi; ++s) {
        codec_.decode(table_.key(static_cast<StateId>(s)), b.state);
        for (PhilId p = 0; p < static_cast<PhilId>(n); ++p) {
          algo_.step_into(topology_, b.state, p, b.branches);
          for (const sim::Branch& branch : b.branches) {
            codec_.encode(branch.next, b.key);
            const std::uint64_t* w = b.key.data();
            const std::uint64_t h = key_hash(w, kw);
            const StateId id = table_.find(w, h);
            if (id == kNoState) {
              b.miss_succ.push_back(static_cast<std::uint32_t>(b.probs.size()));
              b.miss_keys.insert(b.miss_keys.end(), w, w + kw);
              b.miss_hashes.push_back(h);
              b.miss_eaters.push_back(sim::eater_mask(branch.next));
            }
            b.targets.push_back(id);
            b.probs.push_back(static_cast<float>(branch.prob));
          }
          b.row_ends.push_back(static_cast<std::uint32_t>(b.probs.size()));
        }
      }
      // Counting sort of the misses by shard; stable, so each shard's run
      // stays in successor order.
      const std::size_t misses = b.miss_hashes.size();
      b.shard_begin.assign(kShards + 1, 0);
      for (const std::uint64_t h : b.miss_hashes) ++b.shard_begin[InternTable::shard_of(h) + 1];
      for (std::size_t s = 0; s < kShards; ++s) b.shard_begin[s + 1] += b.shard_begin[s];
      b.by_shard.resize(misses);
      for (std::size_t m = 0; m < misses; ++m) {
        const std::size_t s = InternTable::shard_of(b.miss_hashes[m]);
        b.by_shard[b.shard_begin[s]++] = static_cast<std::uint32_t>(m);
      }
      // The fill advanced each begin to its shard's end; shift back.
      for (std::size_t s = kShards; s > 0; --s) b.shard_begin[s] = b.shard_begin[s - 1];
      b.shard_begin[0] = 0;
      b.miss_entry.resize(misses);
      b.miss_first.assign(misses, 0);
    });
    expand_span.stop();

    obs::TimedSpan intern_span("explore.intern");
    // 2. Dedupe per shard. Blocks are visited in order and each block's
    // shard run is in successor order, so the first time a key is seen is
    // its smallest (state, philosopher, branch) position in the level.
    common::parallel_for(kShards, level_threads, [&](std::uint32_t s) {
      LevelShard& shard = level_shards[s];
      shard.entries.clear();
      std::size_t misses = 0;
      for (std::size_t bi = 0; bi < num_blocks; ++bi) {
        misses += blocks[bi].shard_begin[s + 1] - blocks[bi].shard_begin[s];
      }
      if (misses == 0) return;
      shard.slots.assign(slots_for(misses), kNoState);
      const std::size_t mask = shard.slots.size() - 1;
      for (std::size_t bi = 0; bi < num_blocks; ++bi) {
        Block& b = blocks[bi];
        for (std::uint32_t k = b.shard_begin[s]; k < b.shard_begin[s + 1]; ++k) {
          const std::uint32_t m = b.by_shard[k];
          const std::uint64_t* w = b.miss_keys.data() + std::size_t{m} * kw;
          const std::uint64_t h = b.miss_hashes[m];
          std::size_t i = h & mask;
          while (shard.slots[i] != kNoState) {
            const Entry& e = shard.entries[shard.slots[i]];
            if (e.hash == h && same_key(e.key, w, kw)) break;
            i = (i + 1) & mask;
          }
          if (shard.slots[i] == kNoState) {
            shard.slots[i] = static_cast<std::uint32_t>(shard.entries.size());
            shard.entries.push_back(Entry{w, h, kNoState});
            b.miss_first[m] = 1;
          }
          b.miss_entry[m] = shard.slots[i];
        }
      }
    });

    // 3. Number, serially: new ids in position order — blocks in order,
    // each block's misses in successor order. The overflow guard in grow()
    // runs before any id is handed out.
    std::size_t new_states = 0;
    std::size_t level_edges = 0;
    for (std::size_t bi = 0; bi < num_blocks; ++bi) {
      Block& b = blocks[bi];
      b.succ_base = level_edges;
      level_edges += b.probs.size();
      new_states += static_cast<std::size_t>(
          std::count(b.miss_first.begin(), b.miss_first.end(), std::uint8_t{1}));
      max_succs = std::max(max_succs, b.probs.size());
      max_misses = std::max(max_misses, b.miss_hashes.size());
    }
    StateId next_id = table_.grow(new_states);
    for (std::size_t bi = 0; bi < num_blocks; ++bi) {
      const Block& b = blocks[bi];
      for (std::size_t m = 0; m < b.miss_first.size(); ++m) {
        if (!b.miss_first[m]) continue;
        LevelShard& shard = level_shards[InternTable::shard_of(b.miss_hashes[m])];
        shard.entries[b.miss_entry[m]].id = next_id++;
      }
    }
    eaters_.resize(table_.size());
    const std::size_t edge_base = outcomes_.size();
    outcomes_.resize(edge_base + level_edges);
    const std::size_t row_base = offsets_.size();
    offsets_.resize(row_base + count * n);

    // 4. Publish. Shard tasks grow their shard once (rehashing only keys of
    // earlier levels) and index the new ids in id order; block tasks copy
    // their new keys into the arena, resolve their misses and write their
    // CSR rows. The two touch disjoint arena ranges.
    common::parallel_for(kShards + num_blocks, level_threads, [&](std::uint32_t task) {
      if (task < kShards) {
        const std::vector<Entry>& entries = level_shards[task].entries;
        table_.reserve(task, entries.size());
        for (const Entry& e : entries) table_.insert(e.id, e.hash);
        return;
      }
      const std::size_t bi = task - kShards;
      Block& b = blocks[bi];
      for (std::size_t m = 0; m < b.miss_succ.size(); ++m) {
        const LevelShard& shard = level_shards[InternTable::shard_of(b.miss_hashes[m])];
        const StateId id = shard.entries[b.miss_entry[m]].id;
        b.targets[b.miss_succ[m]] = id;
        if (b.miss_first[m]) {
          std::copy_n(b.miss_keys.data() + m * kw, kw, table_.mutable_key(id));
          eaters_[id] = b.miss_eaters[m];
        }
      }
      Outcome* out = outcomes_.data() + edge_base + b.succ_base;
      for (std::size_t j = 0; j < b.probs.size(); ++j) out[j] = Outcome{b.probs[j], b.targets[j]};
      std::uint64_t* rows = offsets_.data() + row_base + bi * kBlockStates * n;
      for (std::size_t r = 0; r < b.row_ends.size(); ++r) {
        rows[r] = edge_base + b.succ_base + b.row_ends[r];
      }
    });
    intern_span.stop();

    levels_ctr.increment();
    // Per-level deltas (not one end-of-run add) so a GDP_OBS_PROGRESS
    // heartbeat sees totals grow level by level. The deltas sum to the same
    // run totals, so the deterministic plane is unchanged.
    states_ctr.add(count);
    edges_ctr.add(level_edges);
    level_states.record(count);
    num_expanded_ = begin + count;
    obs::timeline::counter_sample("explore.states", static_cast<double>(num_expanded_));
    obs::timeline::counter_sample("explore.edges", static_cast<double>(outcomes_.size()));
  }

  // Interner footprint: the key arena plus the slot table, as held.
  intern_bytes.set_max(table_.bytes());
}

Model LevelExplorer::take_model(StateIndex* index_out, std::vector<std::uint64_t>* keys_out) {
  const std::size_t n = static_cast<std::size_t>(topology_.num_phils());
  const std::size_t total = table_.size();

  Model model;
  model.num_phils_ = static_cast<int>(n);
  model.truncated_ = truncated_;
  // Every id was handed out to a successor of an interned state, starting
  // from the initial one: every state is reachable (frontier ones too).
  model.all_reachable_ = true;
  model.eaters_ = std::move(eaters_);
  model.outcomes_ = std::move(outcomes_);
  model.frontier_.assign(total, false);
  for (std::size_t s = num_expanded_; s < total; ++s) model.frontier_[s] = true;

  // Frontier states get empty rows.
  offsets_.resize(total * n + 1, offsets_.back());
  model.offsets_ = std::move(offsets_);

  if (index_out != nullptr) {
    index_out->reset(codec_);
    index_out->reserve(total);
    PackedKey key;
    for (std::size_t s = 0; s < total; ++s) {
      key.assign(table_.key(static_cast<StateId>(s)), codec_.key_words());
      index_out->try_emplace(key, static_cast<StateId>(s));
    }
  }
  if (keys_out != nullptr) *keys_out = table_.take_arena();
  return model;
}

}  // namespace gdp::mdp::detail
