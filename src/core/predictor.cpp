#include "core/predictor.hpp"

namespace dxbsp::core {

Prediction predictions_from_profile(const AccessProfile& ap,
                                    const DxBspParams& m) {
  Prediction pr;
  pr.profile = ap;
  pr.bsp = bsp_step_time(m, ap.location_step());
  pr.dxbsp_location = dxbsp_step_time(m, ap.location_step());
  pr.dxbsp_mapped =
      ap.h_bank_mapped == 0 ? 0 : dxbsp_step_time(m, ap.mapped_step());
  return pr;
}

Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                           const DxBspParams& m,
                           const mem::BankMapping* mapping) {
  return predictions_from_profile(profile_access(addrs, m, mapping), m);
}

Prediction predict_scatter(std::span<const std::uint64_t> addrs,
                           const sim::MachineConfig& cfg,
                           const mem::BankMapping* mapping) {
  return predict_scatter(addrs, DxBspParams::from_config(cfg), mapping);
}

Prediction predict_aggregate(std::uint64_t n, std::uint64_t max_contention,
                             const DxBspParams& m) {
  return predictions_from_profile(profile_aggregate(n, max_contention, m), m);
}

}  // namespace dxbsp::core
