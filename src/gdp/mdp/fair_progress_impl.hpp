// Template definition of the verdict logic over an already-computed MEC
// decomposition, generalized over the Model read API. Instantiated for
// `Model` (fair_progress.cpp / par) and `store::ChunkedModel` (store.cpp):
// the verdict, the witness choice and every count come out identical on
// both paths because this is the one definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gdp/mdp/end_components.hpp"
#include "gdp/mdp/fair_progress.hpp"

namespace gdp::mdp::detail {

/// The verdict for `set_mask` from the MEC decomposition of its fragment
/// and the reachable-state set (reached[s] true iff s is reachable from the
/// initial state).
template <class ModelT>
FairProgressResult verdict_from_mecs_t(const ModelT& model, std::uint64_t set_mask,
                                       const MecList& mecs, const std::vector<bool>& reached) {
  FairProgressResult result;
  result.avoid_set = set_mask;
  result.num_states = model.num_states();
  result.num_mecs = mecs.size();

  for (std::size_t k = 0; k < mecs.size(); ++k) {
    if (!mecs.fair(k, model.num_phils())) continue;
    ++result.num_fair_mecs;
    const bool reachable =
        std::any_of(mecs.begin(k), mecs.end(k), [&](StateId s) { return reached[s]; });
    if (reachable && result.witness_size == 0) {
      result.witness_size = mecs.members(k);
      result.witness_state = *mecs.begin(k);
    }
  }

  if (result.witness_size != 0) {
    result.verdict = Verdict::kProgressFails;
  } else if (model.truncated()) {
    result.verdict = Verdict::kUnknownTruncated;
  } else {
    result.verdict = Verdict::kProgressCertain;
  }
  return result;
}

}  // namespace gdp::mdp::detail
