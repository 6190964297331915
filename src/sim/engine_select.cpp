#include "sim/engine_select.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace dxbsp::sim {

obs::EngineChoice EngineSelector::decide(const EngineFeatures& f) const {
  if (forced_) return *forced_;
  // The specialized fast paths, when exact, always beat a scheduler:
  // they skip the event queue entirely.
  if (f.eligible_soa) return obs::EngineChoice::kSoA;
  if (f.eligible_dense) return obs::EngineChoice::kDense;
  // General path: the binary-heap scheduler.
  return obs::EngineChoice::kHeap;
}

std::uint64_t EngineSelector::h_bank_estimate(const EngineFeatures& f) const {
  const std::uint64_t uniform =
      f.banks > 0 ? util::ceil_div(f.n, f.banks) : 0;
  if (last_n_ == 0) return uniform;
  // Scale last superstep's measured skew to this op's size. Integer
  // arithmetic only: the estimate must be bit-identical everywhere.
  const std::uint64_t scaled =
      last_n_ > 0 ? (last_h_bank_ * f.n) / last_n_ : 0;
  return std::max(uniform, scaled);
}

std::uint64_t EngineSelector::predict(const EngineFeatures& f) const {
  const std::uint64_t issue = f.gap * f.h_proc;
  const std::uint64_t bank = f.bank_delay * h_bank_estimate(f);
  return 2 * f.latency + std::max(issue, bank);
}

void EngineSelector::observe(const obs::CostBreakdown& breakdown,
                             std::uint64_t h_bank, std::uint64_t n) noexcept {
  std::uint8_t best = 0;
  std::uint64_t best_v = 0;
  for (std::size_t i = 0; i < obs::kCostTerms; ++i) {
    const std::uint64_t v = obs::cost_term_value(breakdown, i);
    if (v > best_v) {
      best_v = v;
      best = static_cast<std::uint8_t>(i);
    }
  }
  last_binding_ = best_v > 0 ? best : obs::kNoBindingTerm;
  last_h_bank_ = h_bank;
  last_n_ = n;
}

}  // namespace dxbsp::sim
