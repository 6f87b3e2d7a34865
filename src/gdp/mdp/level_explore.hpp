// The shared level-synchronous breadth-first explorer behind mdp::explore
// and par::explore.
//
// Exploration proceeds in BFS levels. A level is the contiguous id range
// [num_expanded, num_states): states discovered but not yet expanded — with
// level-synchronous expansion the unexpanded frontier is always an id tail,
// so no frontier queue exists at all.
//
// Interning. Every state's packed key lives once, in a flat id-ordered
// arena of key_words() words per state (InternTable). An open-addressing
// table of 32-bit ids hashes into the arena; it is split into a fixed number
// of shards by hash bits, so each shard has exactly one writer and its size
// never depends on the thread count. Ids are the order of first occurrence
// in (state, philosopher, branch) order — the FIFO order the historical
// sequential explorer assigned — and are computed in parallel with the
// "deterministic reservations" pattern (Blelloch, Fineman, Gibbons, Shun,
// PPoPP 2012). Each level runs on the pool in fixed-size blocks of states:
//
//   1. Expand: every state decodes its key into a reused scratch state,
//      steps the algorithm for each philosopher into a reused branch buffer,
//      packs each successor and looks it up in the (read-only) table. Hits
//      record their id; misses record their key, hash and eater mask.
//   2. Dedupe, per shard: walk the shard's misses in global position order
//      and keep the first (smallest-position) occurrence of each new key.
//   3. Number: one serial pass hands out the new ids in position order.
//   4. Publish: every shard grows once and inserts its new ids; every block
//      copies its first occurrences into the arena and writes its CSR rows
//      with each miss resolved to its key's id.
//
// No step's output depends on the schedule, so the model is bit-identical
// at every thread count.
//
// The state cap applies at LEVEL granularity: before expanding a level, if
// num_states >= max_states the run stops with every state either fully
// expanded or untouched frontier. Truncation is therefore a pure function
// of (algorithm, topology, max_states) — identical for mdp::explore and
// par::explore at every thread count, with no sequential fallback. A capped
// run may finish the level in flight and overshoot max_states by one
// level's discoveries; it never stops mid-level.
//
// Because expanded states always form an id prefix and levels are complete,
// a truncated model IS a checkpoint: restore() re-seeds an explorer from
// the model + its id-ordered keys, and run() continues exactly where the
// capped run stopped — the basis of gdp::mdp::store's save/resume contract.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/check.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/mdp/key.hpp"
#include "gdp/mdp/model.hpp"

namespace gdp::mdp::detail {

/// The intern table's empty-slot sentinel. Ids are below it, so a run holds
/// at most kNoState states.
inline constexpr StateId kNoState = 0xffffffff;

/// Reserves the ids [num_states, num_states + count) for one level's new
/// states and returns the first. Throws PreconditionError, naming the state
/// count, instead of handing out an id that would reach kNoState.
StateId reserve_id_range(std::size_t num_states, std::size_t count);

/// Packed keys in one flat id-ordered arena, indexed by linear-probing
/// shards of 32-bit ids. The shard is the hash's top kShardBits bits, the
/// slot its low bits. A shard keeps its load at or below 1/2 and its slot
/// count a power of two of at least kMinSlots, so its size is a pure
/// function of how many keys it holds.
class InternTable {
 public:
  static constexpr unsigned kShardBits = 8;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kMinSlots = 16;

  static std::size_t shard_of(std::uint64_t hash) { return hash >> (64 - kShardBits); }

  /// Empties the table and takes over `arena` (key_words words per id) as
  /// ids 0..n-1, indexing each. Throws PreconditionError on a duplicate key.
  void assign(std::size_t key_words, std::vector<std::uint64_t> arena);

  std::size_t size() const { return arena_.size() / kw_; }
  const std::uint64_t* key(StateId id) const {
    return arena_.data() + static_cast<std::size_t>(id) * kw_;
  }
  std::uint64_t* mutable_key(StateId id) {
    return arena_.data() + static_cast<std::size_t>(id) * kw_;
  }

  /// The id of the key at `words` (whose key_hash is `hash`), or kNoState.
  StateId find(const std::uint64_t* words, std::uint64_t hash) const;

  /// Appends `count` zeroed arena slots (ids from reserve_id_range) and
  /// returns the first id. The table indexes them only once insert()ed.
  StateId grow(std::size_t count);

  /// Grows shard `shard` to hold `extra` more keys, rehashing the keys it
  /// holds; the inserts that follow then read no keys at all.
  void reserve(std::size_t shard, std::size_t extra);

  /// Indexes `id`, whose key is absent from the table, in its shard. Reads
  /// the arena only when the shard must grow. Concurrent calls (and
  /// reserve calls) are safe for distinct shards.
  void insert(StateId id, std::uint64_t hash);

  /// Arena key bytes plus slot bytes: what the interner holds.
  std::size_t bytes() const;

  /// Moves the arena out and drops the slots: the table is consumed.
  std::vector<std::uint64_t> take_arena() {
    shards_.clear();
    return std::move(arena_);
  }

 private:
  struct Shard {
    std::vector<StateId> slots;
    std::size_t count = 0;
  };
  void rehash(Shard& shard, std::size_t slots);

  std::size_t kw_ = 1;
  std::vector<std::uint64_t> arena_;
  std::vector<Shard> shards_;
};

class LevelExplorer {
 public:
  /// Seeds the exploration at algo.initial_state(t). Requires
  /// ThinkMode::kHungry (the proofs' all-hungry setting) and at most 64
  /// philosophers (the eater/target masks are one 64-bit word).
  LevelExplorer(const algos::Algorithm& algo, const graph::Topology& t);

  /// Re-seeds from a previously explored model plus its id-ordered packed
  /// keys, key_words() words per state (as returned by take_model): the
  /// frontier must be a contiguous id tail and the first key must encode
  /// the initial state. run() then continues the interrupted run
  /// bit-identically.
  ///
  /// Generic over the Model read API (row/eaters/frontier): restoring from
  /// a store::ChunkedModel reads rows chunk by chunk and never needs the
  /// contiguous materialized form — the basis of store::resume's
  /// no-materialize contract. Rows are copied in (state, philosopher)
  /// ascending order, which reproduces the contiguous CSR byte for byte.
  template <class ModelT>
  void restore(const ModelT& model, std::vector<std::uint64_t> keys) {
    const std::size_t kw = codec_.key_words();
    GDP_CHECK_MSG(model.num_phils() == topology_.num_phils(),
                  "restore: model has " << model.num_phils() << " philosophers, topology has "
                                        << topology_.num_phils());
    GDP_CHECK_MSG(keys.size() == model.num_states() * kw,
                  "restore: " << keys.size() << " key words for " << model.num_states()
                              << " states of " << kw << " words");
    const PackedKey initial = codec_.encode(algo_.initial_state(topology_));
    GDP_CHECK_MSG(!keys.empty() && std::equal(keys.begin(), keys.begin() + kw, initial.data()),
                  "restore: state 0 is not this (algorithm, topology)'s initial state");

    // The level-synchronous invariant: expanded states are an id prefix,
    // frontier states the tail. Anything else is not a checkpoint this
    // explorer produced.
    const std::size_t total = model.num_states();
    std::size_t expanded = 0;
    while (expanded < total && !model.frontier(static_cast<StateId>(expanded))) ++expanded;
    for (std::size_t s = expanded; s < total; ++s) {
      GDP_CHECK_MSG(model.frontier(static_cast<StateId>(s)),
                    "restore: expanded state " << s << " follows a frontier state — the model is "
                                                  "not a level-synchronous prefix");
    }

    const std::size_t n = static_cast<std::size_t>(model.num_phils());
    table_.assign(kw, std::move(keys));
    eaters_.resize(total);
    for (std::size_t s = 0; s < total; ++s) eaters_[s] = model.eaters(static_cast<StateId>(s));
    outcomes_.clear();
    offsets_.assign(1, 0);
    offsets_.reserve(expanded * n + 1);
    for (std::size_t s = 0; s < expanded; ++s) {
      for (std::size_t p = 0; p < n; ++p) {
        const auto [begin, end] = model.row(static_cast<StateId>(s), static_cast<int>(p));
        outcomes_.insert(outcomes_.end(), begin, end);
        offsets_.push_back(outcomes_.size());
      }
    }
    num_expanded_ = expanded;
    truncated_ = false;
  }

  /// Level-synchronous BFS until the space is exhausted or num_states() >=
  /// max_states at a level boundary (the model is then truncated).
  void run(std::size_t max_states, int threads);

  const KeyCodec& codec() const { return codec_; }
  std::size_t num_states() const { return table_.size(); }

  /// Consumes the explorer into the canonical CSR Model (leading zero
  /// offset, empty rows for frontier states), marked
  /// all_states_reachable(). Optionally also yields the
  /// key -> id index (built only on request) and the id-ordered keys,
  /// key_words() words per state.
  Model take_model(StateIndex* index_out = nullptr, std::vector<std::uint64_t>* keys_out = nullptr);

 private:
  const algos::Algorithm& algo_;
  const graph::Topology& topology_;
  KeyCodec codec_;
  InternTable table_;                  // id -> packed key, and key -> id
  std::vector<std::uint64_t> eaters_;  // id -> eater mask
  std::vector<std::uint64_t> offsets_{0};  // CSR offsets of the expanded states' rows
  std::vector<Outcome> outcomes_;
  std::size_t num_expanded_ = 0;  // expanded states are the id prefix [0, num_expanded_)
  bool truncated_ = false;
};

}  // namespace gdp::mdp::detail
