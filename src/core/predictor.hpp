#pragma once
// One-call predictions for bulk scatter/gather operations: the
// measured-vs-predicted interface every experiment uses.

#include <cstdint>
#include <span>
#include <string>

#include "core/access_profile.hpp"
#include "core/params.hpp"
#include "sim/machine_config.hpp"

namespace dxbsp::core {

/// Predicted times (in cycles) for one bulk operation under the competing
/// models. `dxbsp_location` is the paper's headline prediction (knows only
/// n and the max location contention k); `dxbsp_mapped` additionally
/// accounts module-map contention under a concrete mapping; `bsp` is the
/// bank-blind baseline.
struct Prediction {
  std::uint64_t bsp = 0;
  std::uint64_t dxbsp_location = 0;
  std::uint64_t dxbsp_mapped = 0;  ///< 0 when no mapping was supplied
  AccessProfile profile;

  [[nodiscard]] double dxbsp_best() const noexcept {
    return static_cast<double>(dxbsp_mapped != 0 ? dxbsp_mapped
                                                 : dxbsp_location);
  }
};

/// Predictions from an already-built profile: from profile_bulk when the
/// op was simulated (algos::Vm), so the trace is analyzed once.
[[nodiscard]] Prediction predictions_from_profile(const AccessProfile& ap,
                                                  const DxBspParams& m);

/// Predicts the time of a scatter/gather of `addrs` on machine `m`.
/// If `mapping` is non-null the mapped (oracle) prediction is included.
[[nodiscard]] Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                                         const DxBspParams& m,
                                         const mem::BankMapping* mapping = nullptr);

/// Same from a simulator configuration.
[[nodiscard]] Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                                         const sim::MachineConfig& cfg,
                                         const mem::BankMapping* mapping = nullptr);

/// Predicts from aggregate quantities only (n requests, max contention k).
[[nodiscard]] Prediction predict_aggregate(std::uint64_t n,
                                           std::uint64_t max_contention,
                                           const DxBspParams& m);

}  // namespace dxbsp::core
