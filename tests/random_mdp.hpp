// Shared test helper: a seeded generator of random MDPs built through
// Model::build, for cross-checking the MEC decomposition and the
// quantitative checker against sequential and brute-force oracles.
//
// The generator plants the shapes each phase of the parallel MEC
// decomposition is built for: a long DAG chain of small SCCs (what the
// trim peels and the re-split's common case), one giant SCC (what Tarjan
// is left with), actions with one outcome leaving their SCC (the
// refinement's reason to exist), empty rows, eating states and
// unexpanded frontier states. State ids are shuffled so no phase can lean
// on id order.
//
// With duplicate_prob > 0 it also plants what the quant quotient's action
// deduplication is built for: rows that repeat another philosopher's row
// of the same state, rows shared by several members of one group (so one
// MEC node sees the same external action from many members), and
// near-duplicates with the same destinations but different probabilities.
// duplicate_prob == 0 draws no extra random numbers, so the models of
// every other seed are unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gdp/mdp/model.hpp"

namespace gdp::testutil {

struct RandomMdpShape {
  std::size_t states = 0;
  int phils = 3;
  double giant_share = 0.3;     // states in the planted giant SCC
  std::size_t chain_group = 3;  // max states per small SCC of the chain
  double frontier_prob = 0.02;
  double duplicate_prob = 0.0;  // chance a non-empty row is a planted (near-)duplicate
};

inline mdp::Model random_mdp(std::uint64_t seed, const RandomMdpShape& shape) {
  using mdp::Outcome;
  using mdp::StateId;
  std::mt19937_64 rng(seed);
  const std::size_t n = shape.states;
  const int phils = shape.phils;
  auto uniform = [&](std::size_t bound) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(rng));
  };
  auto chance = [&](double p) { return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p; };

  std::vector<StateId> id(n);  // planted position -> state id
  for (std::size_t i = 0; i < n; ++i) id[i] = static_cast<StateId>(i);
  std::shuffle(id.begin(), id.end(), rng);

  // Planted groups over positions: [0, giant) is the giant SCC, the rest a
  // chain of small groups, each feeding the next.
  const std::size_t giant = static_cast<std::size_t>(static_cast<double>(n) * shape.giant_share);
  std::vector<std::size_t> group_begin{0};
  if (giant > 0) group_begin.push_back(giant);
  while (group_begin.back() < n) {
    group_begin.push_back(std::min(n, group_begin.back() + 1 + uniform(shape.chain_group)));
  }
  std::vector<std::size_t> group_of(n);
  for (std::size_t g = 0; g + 1 < group_begin.size(); ++g) {
    for (std::size_t i = group_begin[g]; i < group_begin[g + 1]; ++i) group_of[i] = g;
  }
  const std::size_t groups = group_begin.size() - 1;

  std::vector<bool> frontier(n, false);
  std::vector<std::uint64_t> eaters(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    frontier[id[i]] = i > 0 && chance(shape.frontier_prob);
    if (chance(0.3)) eaters[id[i]] = uniform(std::size_t{1} << phils);
  }

  // One exit row per group, drawn on first use, that planted duplicates
  // share across the group's members.
  std::vector<std::vector<StateId>> shared_exit(groups);

  std::vector<std::vector<Outcome>> rows(n * static_cast<std::size_t>(phils));
  for (std::size_t i = 0; i < n; ++i) {
    if (frontier[id[i]]) continue;
    const std::size_t g = group_of[i];
    const std::size_t lo = group_begin[g], hi = group_begin[g + 1];
    auto in_group = [&] { return id[lo + uniform(hi - lo)]; };
    for (int p = 0; p < phils; ++p) {
      std::vector<StateId> targets;
      const std::size_t kind = uniform(10);
      if (kind == 0) {
        // empty row: p cannot move here
      } else if (kind <= 4) {
        // cycle step inside the group (the giant SCC also gets random chords)
        targets.push_back(id[i + 1 < hi ? i + 1 : lo]);
        if (g == 0 && giant > 0 && chance(0.3)) targets.push_back(in_group());
      } else if (kind <= 6) {
        // down the chain
        targets.push_back(g + 1 < groups ? id[group_begin[g + 1] + uniform(group_begin[g + 2] -
                                                                             group_begin[g + 1])]
                                         : in_group());
      } else if (kind <= 8) {
        // half of these also leave the group with their second outcome
        targets.push_back(in_group());
        if (chance(0.5)) targets.push_back(id[uniform(n)]);
      } else {
        for (std::size_t k = 1 + uniform(3); k > 0; --k) targets.push_back(id[uniform(n)]);
      }
      std::vector<Outcome>& row = rows[static_cast<std::size_t>(id[i]) * phils + p];
      if (shape.duplicate_prob > 0.0 && kind != 0 && chance(shape.duplicate_prob)) {
        const std::vector<Outcome>* prev =
            p > 0 ? &rows[static_cast<std::size_t>(id[i]) * phils + p - 1] : nullptr;
        if (prev != nullptr && !prev->empty() && chance(0.5)) {
          row = *prev;  // the previous philosopher's row, outcome for outcome
        } else {
          if (shared_exit[g].empty()) {
            shared_exit[g].push_back(id[uniform(n)]);
            if (chance(0.7)) shared_exit[g].push_back(id[uniform(n)]);
          }
          for (const StateId t : shared_exit[g]) {
            row.push_back(Outcome{1.0f / static_cast<float>(shared_exit[g].size()), t});
          }
        }
        // A near-duplicate: the same destinations, other probabilities.
        if (row.size() == 2 && chance(0.3)) {
          const bool even = row[0].prob == 0.5f;
          row[0].prob = even ? 0.25f : 0.5f;
          row[1].prob = even ? 0.75f : 0.5f;
        }
        continue;
      }
      for (const StateId t : targets) {
        row.push_back(Outcome{1.0f / static_cast<float>(targets.size()), t});
      }
    }
  }
  std::vector<std::uint64_t> offsets{0};
  std::vector<Outcome> outcomes;
  for (const auto& row : rows) {
    outcomes.insert(outcomes.end(), row.begin(), row.end());
    offsets.push_back(outcomes.size());
  }
  const bool truncated = std::find(frontier.begin(), frontier.end(), true) != frontier.end();
  return mdp::Model::build(phils, std::move(offsets), std::move(outcomes), std::move(eaters),
                           std::move(frontier), truncated);
}

}  // namespace gdp::testutil
