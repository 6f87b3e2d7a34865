// Parallel maximal-end-component decomposition — Model instantiation.
//
// The decomposition lives in par/end_components_impl.hpp as a
// template over the Model read API; this translation unit instantiates it
// for the contiguous Model. store.cpp instantiates the same definition for
// store::ChunkedModel (the chunk-native verdict path), which is what makes
// the two paths produce identical components for every thread count.
#include "gdp/mdp/par/end_components_impl.hpp"
#include "gdp/mdp/par/par.hpp"

namespace gdp::mdp::par {

std::vector<EndComponent> maximal_end_components(const Model& model, std::uint64_t avoid_set,
                                                 CheckOptions options) {
  return detail::maximal_end_components_t(model, avoid_set, options).to_end_components();
}

std::vector<bool> reachable_states(const Model& model, CheckOptions options) {
  return detail::reachable_states_t(model, options);
}

FairProgressResult check_fair_progress(const Model& model, std::uint64_t set_mask,
                                       CheckOptions options) {
  return detail::check_fair_progress_t(model, set_mask, options);
}

FairProgressResult check_lockout_freedom(const Model& model, PhilId victim,
                                         CheckOptions options) {
  return check_fair_progress(model, std::uint64_t{1} << victim, options);
}

FairProgressResult check_fair_progress(const algos::Algorithm& algo, const graph::Topology& t,
                                       CheckOptions options, std::uint64_t set_mask) {
  const Model model = explore(algo, t, options);
  return check_fair_progress(model, set_mask, options);
}

}  // namespace gdp::mdp::par
