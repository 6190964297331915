#include "workload/entropy.hpp"

#include <stdexcept>

#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace dxbsp::workload {

void and_round(std::vector<std::uint64_t>& keys, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  // Partner values are sampled from the keys *before* this round, so the
  // round is a parallel step (matches the benchmark's description).
  const std::vector<std::uint64_t> before = keys;
  for (auto& k : keys) k &= before[rng.below(before.size())];
}

std::vector<EntropyTrace> entropy_family(std::uint64_t n, unsigned rounds,
                                         unsigned bits, std::uint64_t space,
                                         std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("entropy_family: n must be >= 1");
  if (bits == 0 || bits > 64)
    throw std::invalid_argument("entropy_family: bits must be in [1,64]");

  util::Xoshiro256 rng(util::substream(seed, 10));
  const std::uint64_t mask =
      bits == 64 ? ~0ULL : ((1ULL << bits) - 1);

  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng() & mask;

  std::vector<EntropyTrace> family;
  family.reserve(rounds + 1);
  for (unsigned r = 0; r <= rounds; ++r) {
    if (r > 0) and_round(keys, util::substream(seed, 100 + r));
    EntropyTrace t;
    t.round = r;
    t.keys = keys;
    if (space != 0)
      for (auto& k : t.keys) k %= space;
    const stats::ValueProfile vp = stats::value_profile(t.keys);
    t.entropy_bits = vp.entropy_bits;
    t.max_contention = vp.max_multiplicity;
    family.push_back(std::move(t));
  }
  return family;
}

}  // namespace dxbsp::workload
