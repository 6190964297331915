#pragma once
// The benchmark's four workloads. Each builds its inputs from the seed in
// setup() and then runs closed-loop passes: pass() returns only when every
// bulk op it issued has completed, and the next pass starts after it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace hostbench {

/// What one setup() or pass() call hands its layer calls.
struct Ctx {
  SpanLog* log = nullptr;  ///< null = untraced
  std::uint32_t op = 0;    ///< pass number (span id)
  std::string out_dir;     ///< where report/trace/checkpoint/spill files go
};

/// Correctness checks: how many ran, and a message for each that failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Everything one pass produced, apart from host time.
struct PassResult {
  /// Chained hash of every simulated statistic and prediction; identical
  /// for every pass of one seed.
  std::uint64_t digest = 0;
  std::uint64_t requests = 0;  ///< simulated requests, retries included
  std::uint64_t written_bytes = 0;
  /// Per-layer counts of this pass (names as printed, without unit).
  std::map<std::string, double> counts;
  /// (predicted, simulated) cycles for every predicted op.
  std::vector<std::pair<double, double>> model;
  Checks checks;  ///< semantic checks of this pass's outputs
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs; a workload may be set up several times.
  virtual void setup(Ctx& ctx) = 0;
  /// Builds what the semantic checks compare against; called once after
  /// setup, outside every timed region.
  virtual void prepare_checks() {}
  virtual PassResult pass(Ctx& ctx) = 0;
  /// Model points computed outside the timed passes (workloads whose
  /// passes predict nothing); empty by default.
  virtual std::vector<std::pair<double, double>> model_outside() {
    return {};
  }
  /// Counts that belong to setup rather than to a pass.
  [[nodiscard]] virtual std::map<std::string, double> setup_counts() const {
    return {};
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace hostbench
