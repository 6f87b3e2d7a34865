// Packed fixed-width state keys for the MDP explorers.
//
// SimState::encode's variable-length byte vectors (>= 13 bytes per fork plus
// guest-book ranks) are stored three times over during exploration — intern
// tables, frontier copies, renumbering logs — and are the memory ceiling for
// >10M-state models. KeyCodec replaces them with a topology/algorithm-aware
// bit layout computed once per (algorithm, topology):
//
//   per fork        holder+1            in bit_width(n) bits   (0 = free)
//                   nr                  in bit_width(m) bits   GDP only
//                   requests            in degree(f) bits      books only
//                   use_rank[slot]      in bit_width(degree(f)) bits each,
//                                       degree(f) slots        books only
//   per philosopher phase               in 3 bits
//                   committed side      in 1 bit
//   per aux word    aux+1               in bit_width(n) bits   baselines only
//
// where n = philosophers, m = the algorithm's effective GDP numbering range.
// Fields whose algorithm never writes them (nr without uses_numbers(), books
// without uses_books(), aux without init_aux()) get ZERO bits, so a classic
// lr1/ring key fits one 64-bit word where the byte encoding took 24 bytes.
//
// Every field occupies its own bit range, so the packing is injective on the
// states the engines can reach; equality and hashing are branch-free word
// compares. The codec is exactly as distinguishing as SimState::encode (the
// legacy diagnostic encoding, cross-checked by test_differential): fields the
// layout drops are provably constant for the algorithm, and fields outside a
// range the layout can represent (a scratch word, an out-of-contract aux
// value) fail a GDP_CHECK instead of silently aliasing two states.
//
// decode() reconstructs the full SimState from a key, which keeps witness
// replay and trace output byte-for-byte what it was with byte-vector keys.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/graph/topology.hpp"
#include "gdp/rng/splitmix.hpp"
#include "gdp/sim/state.hpp"

namespace gdp::mdp {

using StateId = std::uint32_t;

/// A fixed-width bit-packed state key: `words()` 64-bit words, value
/// semantics, word-wise equality. Keys up to kInlineWords live inline (no
/// heap traffic in a StateIndex); wider layouts — e.g. books at high
/// degree — spill to a heap block of exactly words() words.
class PackedKey {
 public:
  static constexpr std::size_t kInlineWords = 3;

  PackedKey() = default;
  explicit PackedKey(std::size_t words) { resize(words); }

  PackedKey(const PackedKey& rhs) { copy_from(rhs); }
  PackedKey(PackedKey&& rhs) noexcept : words_(rhs.words_) {
    if (words_ > kInlineWords) {
      heap_ = rhs.heap_;
      rhs.words_ = 0;
    } else {
      for (std::size_t i = 0; i < words_; ++i) inline_[i] = rhs.inline_[i];
    }
  }
  PackedKey& operator=(const PackedKey& rhs) {
    if (this != &rhs) {
      release();
      copy_from(rhs);
    }
    return *this;
  }
  PackedKey& operator=(PackedKey&& rhs) noexcept {
    if (this != &rhs) {
      release();
      words_ = rhs.words_;
      if (words_ > kInlineWords) {
        heap_ = rhs.heap_;
        rhs.words_ = 0;
      } else {
        for (std::size_t i = 0; i < words_; ++i) inline_[i] = rhs.inline_[i];
      }
    }
    return *this;
  }
  ~PackedKey() { release(); }

  std::size_t words() const { return words_; }
  std::size_t bytes() const { return words_ * sizeof(std::uint64_t); }

  std::uint64_t* data() { return words_ <= kInlineWords ? inline_.data() : heap_; }
  const std::uint64_t* data() const { return words_ <= kInlineWords ? inline_.data() : heap_; }

  /// Overwrites this key with `words` words copied from `w` — the
  /// reconstruction path for keys stored as flat word runs (the level
  /// explorer's key arena, the chunked store's key runs).
  void assign(const std::uint64_t* w, std::size_t words) {
    resize(words);
    std::uint64_t* d = data();
    for (std::size_t i = 0; i < words; ++i) d[i] = w[i];
  }

  /// Sets the width and zero-fills the payload (encode() overwrites it).
  void resize(std::size_t words) {
    if (words != words_) {
      release();
      words_ = static_cast<std::uint32_t>(words);
      if (words > kInlineWords) heap_ = new std::uint64_t[words];
    }
    std::uint64_t* w = data();
    for (std::size_t i = 0; i < words_; ++i) w[i] = 0;
  }

  bool operator==(const PackedKey& rhs) const {
    if (words_ != rhs.words_) return false;
    const std::uint64_t* a = data();
    const std::uint64_t* b = rhs.data();
    for (std::size_t i = 0; i < words_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  void copy_from(const PackedKey& rhs) {
    words_ = rhs.words_;
    if (words_ > kInlineWords) heap_ = new std::uint64_t[words_];
    std::uint64_t* w = data();
    const std::uint64_t* r = rhs.data();
    for (std::size_t i = 0; i < words_; ++i) w[i] = r[i];
  }
  void release() {
    if (words_ > kInlineWords) delete[] heap_;
    words_ = 0;
  }

  std::uint32_t words_ = 0;
  union {
    std::array<std::uint64_t, kInlineWords> inline_ = {};
    std::uint64_t* heap_;
  };
};

/// Word-wise splitmix fold over a key's `words` words; replaces the
/// byte-wise FNV of the old keys. Every output bit is mixed, so the
/// explorer's intern table takes its shard from the high bits and its slot
/// from the low bits of one hash.
inline std::uint64_t key_hash(const std::uint64_t* w, std::size_t words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + words;
  for (std::size_t i = 0; i < words; ++i) h = rng::splitmix64_once(h ^ w[i]);
  return h;
}

struct PackedKeyHash {
  std::size_t operator()(const PackedKey& key) const {
    return static_cast<std::size_t>(key_hash(key.data(), key.words()));
  }
};

/// The layout, computed once from (algorithm, topology); encode/decode are
/// const and safe to share across exploration workers.
class KeyCodec {
 public:
  /// An invalid codec (valid() == false); reset via assignment.
  KeyCodec() = default;
  KeyCodec(const algos::Algorithm& algo, const graph::Topology& t);

  bool valid() const { return num_phils_ > 0; }

  int num_forks() const { return num_forks_; }
  int num_phils() const { return num_phils_; }
  int aux_words() const { return aux_words_; }
  bool books() const { return books_; }
  bool numbers() const { return numbers_; }

  unsigned holder_bits() const { return holder_bits_; }
  unsigned nr_bits() const { return nr_bits_; }
  unsigned aux_bits() const { return aux_bits_; }
  static constexpr unsigned phase_bits() { return 3; }
  unsigned request_bits(ForkId f) const { return books_ ? degree_[static_cast<std::size_t>(f)] : 0; }
  unsigned rank_bits(ForkId f) const;

  std::size_t key_bits() const { return bits_; }
  std::size_t key_words() const { return words_; }
  std::size_t key_bytes() const { return words_ * sizeof(std::uint64_t); }
  /// Bytes the legacy SimState::encode byte vector takes for this shape —
  /// the before/after of the packing, for memory reporting.
  std::size_t legacy_key_bytes() const;

  void encode(const sim::SimState& state, PackedKey& out) const;
  PackedKey encode(const sim::SimState& state) const {
    PackedKey key;
    encode(state, key);
    return key;
  }

  /// Exact inverse of encode() on keys it produced.
  sim::SimState decode(const PackedKey& key) const;
  /// decode() of the key_words() words at `words` into `out`, overwriting
  /// every field and reusing out's storage once it has this layout's shape —
  /// the explorer decodes each frontier state into one scratch state.
  void decode(const std::uint64_t* words, sim::SimState& out) const;

 private:
  int num_forks_ = 0;
  int num_phils_ = 0;
  int aux_words_ = 0;
  bool books_ = false;
  bool numbers_ = false;
  std::uint8_t holder_bits_ = 0;
  std::uint8_t nr_bits_ = 0;
  std::uint8_t aux_bits_ = 0;
  std::uint16_t nr_max_ = 0;
  std::vector<std::uint8_t> degree_;  // per fork; filled only when books_
  std::size_t bits_ = 0;
  std::size_t words_ = 0;
};

/// The encoded-state -> id map the explorers return: the packed-key hash map
/// plus the codec that produced the keys, so callers holding only the index
/// (WitnessScheduler, the differential tests) can locate live SimStates and
/// decode stored keys back into configurations.
class StateIndex {
 public:
  using Map = std::unordered_map<PackedKey, StateId, PackedKeyHash>;
  using const_iterator = Map::const_iterator;
  using value_type = Map::value_type;

  StateIndex() = default;

  /// Installs the codec and clears any previous contents.
  void reset(const KeyCodec& codec) {
    codec_ = codec;
    map_.clear();
  }

  const KeyCodec& codec() const { return codec_; }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  std::pair<Map::iterator, bool> try_emplace(const PackedKey& key, StateId id) {
    return map_.try_emplace(key, id);
  }
  const_iterator find(const PackedKey& key) const { return map_.find(key); }
  const_iterator find(const sim::SimState& state) const { return map_.find(codec_.encode(state)); }
  std::size_t count(const sim::SimState& state) const { return map_.count(codec_.encode(state)); }

  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }

 private:
  KeyCodec codec_;
  Map map_;
};

}  // namespace gdp::mdp
