#include "core/access_profile.hpp"

#include <algorithm>

#include "sim/machine.hpp"
#include "util/bits.hpp"

namespace dxbsp::core {

AccessProfile profile_access(std::span<const std::uint64_t> addrs,
                             const DxBspParams& m,
                             const mem::BankMapping* mapping) {
  AccessProfile ap;
  ap.n = addrs.size();
  ap.h_proc = util::ceil_div(ap.n, m.p);

  const mem::LocationContention lc = mem::analyze_locations(addrs);
  ap.max_contention = lc.max_contention;
  ap.distinct = lc.distinct;
  ap.h_bank_location = std::max<std::uint64_t>(
      lc.max_contention, util::ceil_div(ap.n, m.banks()));

  if (mapping != nullptr) {
    const mem::BankLoads bl = mem::analyze_banks(addrs, *mapping);
    ap.h_bank_mapped = bl.max_load;
  }
  return ap;
}

AccessProfile profile_bulk(const sim::BulkResult& res, const DxBspParams& m) {
  AccessProfile ap;
  ap.n = res.n;
  ap.h_proc = util::ceil_div(ap.n, m.p);
  ap.max_contention = res.max_location_contention;
  ap.distinct = res.distinct_locations;
  ap.h_bank_location = std::max<std::uint64_t>(
      ap.max_contention, util::ceil_div(ap.n, m.banks()));
  ap.h_bank_mapped = res.max_requested_bank_load;
  return ap;
}

AccessProfile profile_aggregate(std::uint64_t n, std::uint64_t max_contention,
                                const DxBspParams& m) {
  AccessProfile ap;
  ap.n = n;
  ap.h_proc = util::ceil_div(n, m.p);
  ap.max_contention = max_contention;
  ap.distinct = max_contention == 0 ? 0 : n / std::max<std::uint64_t>(1, max_contention);
  ap.h_bank_location =
      std::max<std::uint64_t>(max_contention, util::ceil_div(n, m.banks()));
  ap.h_bank_mapped = 0;
  return ap;
}

}  // namespace dxbsp::core
