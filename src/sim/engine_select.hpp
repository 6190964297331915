#pragma once
// Adaptive engine selection for Machine::run (docs/performance.md
// §selector): classify each bulk operation from cheap pre-dispatch
// features and dispatch it to the execution strategy the (d,x)-BSP cost
// shape says should win.
//
// Features (all O(1), computed before any per-element work):
//   * h_proc = ceil(n/p), the issue-pipeline depth, and the slackness
//     window min(S, h_proc) — whether the completion window can bind;
//   * the fault-plan fingerprint — whether retries/failover are possible;
//   * a bank-load estimate: ceil(n/B) uniform floor, sharpened by the
//     previous superstep's measured h_bank scaled to this op's n (the
//     hot-set skew persists across supersteps of one workload);
//   * the previous superstep's binding cost term (obs::CostBreakdown):
//     window-bound vs bank-bound vs retry-heavy, measured cycle-exactly.
//
// The decision is a pure function of the features (plus the per-machine
// memory of the previous superstep), so it is deterministic across
// hosts, thread counts and serial-vs-fleet execution. Machine verifies
// eligibility and demotes an infeasible choice (recorded as fallback in
// the selector log) instead of trusting the policy blindly.

#include <cstdint>
#include <optional>

#include "obs/attribution.hpp"
#include "obs/selector.hpp"

namespace dxbsp::sim {

/// Pre-dispatch description of one bulk operation.
struct EngineFeatures {
  std::uint64_t n = 0;
  std::uint64_t processors = 0;
  std::uint64_t banks = 0;
  std::uint64_t gap = 1;
  std::uint64_t bank_delay = 1;
  std::uint64_t latency = 0;
  std::uint64_t h_proc = 0;  ///< ceil(n/p) == max per-proc request count
  std::uint64_t window = 0;  ///< min(slackness, h_proc)
  std::uint64_t plan_fingerprint = 0;  ///< 0 = no fault plan
  bool has_plan = false;
  /// No plan and the window never binds: the dense fast path is exact.
  bool eligible_dense = false;
  /// Dense-eligible AND ideal network, no cache tier, no tracer, no
  /// per-request timing: the SoA batched kernel is exact.
  bool eligible_soa = false;
};

/// The policy plus its per-machine one-superstep memory. Stateless apart
/// from that memory and the test-only force hook; reset() restores the
/// initial state (bench::Obs re-attaches per sweep point, so serial,
/// threaded and fleet execution see identical decision sequences).
class EngineSelector {
 public:
  [[nodiscard]] obs::EngineChoice decide(const EngineFeatures& f) const;

  /// Integer (d,x)-BSP prediction for the selector log:
  /// 2L + max(g·h_proc, d·h_bank_est).
  [[nodiscard]] std::uint64_t predict(const EngineFeatures& f) const;

  /// Bank-load estimate used by predict(): the uniform floor ceil(n/B),
  /// sharpened by the previous superstep's measured skew when available.
  [[nodiscard]] std::uint64_t h_bank_estimate(const EngineFeatures& f) const;

  /// Feeds back one completed superstep's measured shape.
  void observe(const obs::CostBreakdown& breakdown, std::uint64_t h_bank,
               std::uint64_t n) noexcept;

  /// Binding term of the previous superstep (index into
  /// obs::cost_term_name; obs::kNoBindingTerm before the first one).
  [[nodiscard]] std::uint8_t last_binding() const noexcept {
    return last_binding_;
  }

  void reset() noexcept {
    last_binding_ = obs::kNoBindingTerm;
    last_h_bank_ = 0;
    last_n_ = 0;
  }

  /// Test hook: pin the raw choice (Machine still demotes it when
  /// ineligible — the forced-misprediction fallback under test).
  void force(std::optional<obs::EngineChoice> choice) noexcept {
    forced_ = choice;
  }
  [[nodiscard]] std::optional<obs::EngineChoice> forced() const noexcept {
    return forced_;
  }

 private:
  std::uint8_t last_binding_ = obs::kNoBindingTerm;
  std::uint64_t last_h_bank_ = 0;
  std::uint64_t last_n_ = 0;
  std::optional<obs::EngineChoice> forced_;
};

}  // namespace dxbsp::sim
