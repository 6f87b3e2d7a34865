#include "gdp/mdp/end_components.hpp"

#include "gdp/common/check.hpp"
#include "gdp/mdp/end_components_impl.hpp"

namespace gdp::mdp {

// The algorithm lives in end_components_impl.hpp as a template over the Model
// read API; this translation unit instantiates it for the contiguous Model.
// store.cpp instantiates the same definition for store::ChunkedModel, which
// is what makes chunk-native components byte-identical by construction.

std::vector<EndComponent> maximal_end_components(const Model& model, std::uint64_t avoid_set) {
  return detail::maximal_end_components_t(model, avoid_set);
}

std::vector<bool> reachable_states(const Model& model) {
  return detail::reachable_states_t(model);
}

MecList MecList::from(const std::vector<EndComponent>& mecs) {
  MecList out;
  std::size_t total = 0;
  for (const EndComponent& mec : mecs) total += mec.states.size();
  GDP_CHECK_MSG(total < (std::uint64_t{1} << 32), "MecList holds < 2^32 member states");
  out.states.reserve(total);
  out.offsets.reserve(mecs.size() + 1);
  out.phil_mask.reserve(mecs.size());
  for (const EndComponent& mec : mecs) {
    out.states.insert(out.states.end(), mec.states.begin(), mec.states.end());
    out.offsets.push_back(static_cast<std::uint32_t>(out.states.size()));
    out.phil_mask.push_back(mec.phil_mask);
  }
  return out;
}

std::vector<EndComponent> MecList::to_end_components() const {
  std::vector<EndComponent> out(size());
  for (std::size_t k = 0; k < size(); ++k) {
    out[k].states.assign(begin(k), end(k));
    out[k].phil_mask = phil_mask[k];
  }
  return out;
}

namespace detail {

MecMemo& MecMemo::operator=(const MecMemo& rhs) noexcept {
  if (this == &rhs) return *this;
  common::MutexLock lock(mu_);
  entries_.clear();
  bytes_ = 0;
  return *this;
}

std::shared_ptr<const MecList> MecMemo::find(const MecKey& key) const {
  common::MutexLock lock(mu_);
  for (const auto& [k, mecs] : entries_) {
    if (k == key) return mecs;
  }
  return nullptr;
}

void MecMemo::keep(const MecKey& key, std::shared_ptr<const MecList> mecs, std::size_t budget) {
  const std::size_t bytes = mecs->bytes();
  common::MutexLock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry.first == key) return;  // another thread kept the same result first
  }
  if (bytes_ + bytes > budget) return;
  entries_.emplace_back(key, std::move(mecs));
  bytes_ += bytes;
}

std::size_t MecMemo::bytes() const {
  common::MutexLock lock(mu_);
  return bytes_;
}

}  // namespace detail

}  // namespace gdp::mdp
