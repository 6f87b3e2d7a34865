// Counting sort of dense item ids by a dense integer key: one flat item
// array plus offsets, instead of one small vector per key. The MEC
// decomposition buckets its re-split blocks with it and the quantitative
// checker groups quotient-node members with it; both need every bucket in
// ascending item order, which a stable counting sort gives for free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gdp/common/check.hpp"

namespace gdp::common {

/// Items grouped by key: the items with key k are
/// items[offsets[k] .. offsets[k + 1]), in ascending order.
struct Buckets {
  std::vector<std::uint32_t> offsets;  // num_keys + 1 entries
  std::vector<std::uint32_t> items;

  std::size_t num_keys() const { return offsets.size() - 1; }
  const std::uint32_t* begin(std::size_t k) const { return items.data() + offsets[k]; }
  const std::uint32_t* end(std::size_t k) const { return items.data() + offsets[k + 1]; }
  std::size_t size(std::size_t k) const { return offsets[k + 1] - offsets[k]; }
};

/// Stable counting sort of the ids [0, n) by key(i). Ids whose key is
/// >= num_keys are left out. Two ascending passes over the ids; key must be
/// a pure function of i. n < 2^32.
template <class KeyFn>
Buckets counting_sort(std::size_t n, std::size_t num_keys, KeyFn&& key) {
  GDP_CHECK_MSG(n < (std::uint64_t{1} << 32), "counting_sort supports < 2^32 items");
  Buckets b;
  b.offsets.assign(num_keys + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = key(static_cast<std::uint32_t>(i));
    if (k < num_keys) ++b.offsets[k + 1];
  }
  for (std::size_t k = 0; k < num_keys; ++k) b.offsets[k + 1] += b.offsets[k];
  b.items.resize(b.offsets[num_keys]);
  std::vector<std::uint32_t> cursor(b.offsets.begin(), b.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = key(static_cast<std::uint32_t>(i));
    if (k < num_keys) b.items[cursor[k]++] = static_cast<std::uint32_t>(i);
  }
  return b;
}

}  // namespace gdp::common
