#include "mem/contention.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/multiplicity.hpp"

namespace dxbsp::mem {

LocationContention analyze_locations(std::span<const std::uint64_t> addrs) {
  LocationContention lc;
  lc.total = addrs.size();
  if (addrs.empty()) return lc;
  // A fresh counter per call: a retained (static or thread_local) table
  // would keep its largest-ever capacity resident for the whole process.
  const util::Multiplicity m = util::MultiplicityCounter{}.count(addrs);
  lc.max_contention = m.max;
  lc.distinct = m.distinct;
  lc.mean_contention =
      static_cast<double>(lc.total) / static_cast<double>(lc.distinct);
  return lc;
}

BankLoads analyze_banks(std::span<const std::uint64_t> addrs,
                        const BankMapping& mapping) {
  BankLoads bl;
  bl.load.assign(mapping.num_banks(), 0);
  bl.total = addrs.size();
  // Route in fixed-size chunks: one virtual dispatch per chunk instead of
  // one per element, without a trace-sized bank buffer.
  constexpr std::size_t kChunk = 2048;
  std::array<std::uint64_t, kChunk> banks{};
  for (std::size_t at = 0; at < addrs.size(); at += kChunk) {
    const std::size_t len = std::min(kChunk, addrs.size() - at);
    const std::span<std::uint64_t> out(banks.data(), len);
    mapping.bank_of_batch(addrs.subspan(at, len), out);
    tally_banks(out, bl.load);
  }
  for (const std::uint64_t l : bl.load) {
    bl.max_load = std::max(bl.max_load, l);
    if (l != 0) ++bl.nonempty_banks;
  }
  bl.mean_load = mapping.num_banks() == 0
                     ? 0.0
                     : static_cast<double>(bl.total) /
                           static_cast<double>(mapping.num_banks());
  return bl;
}

void tally_banks(std::span<const std::uint64_t> route,
                 std::span<std::uint64_t> load) noexcept {
  for (const std::uint64_t b : route) ++load[b];
}

std::uint64_t location_forced_max_load(std::span<const std::uint64_t> addrs,
                                       std::uint64_t num_banks) {
  if (num_banks == 0)
    throw std::invalid_argument(
        "location_forced_max_load: num_banks must be >= 1");
  const LocationContention lc = analyze_locations(addrs);
  // Even a perfect map cannot serve one bank faster than its hottest
  // location, nor spread `total` requests thinner than total/B.
  return std::max<std::uint64_t>(
      lc.max_contention, util::ceil_div(lc.total, num_banks));
}

}  // namespace dxbsp::mem
