#include "stats/histogram.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/bits.hpp"

namespace dxbsp::stats {

namespace {

/// Sorts `keys` ascending: an LSD radix sort on 8-bit digits that skips
/// every digit on which all keys agree, since that pass would move
/// nothing.
void radix_sort(std::vector<std::uint64_t>& keys) {
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (const std::uint64_t k : keys) {
    any |= k;
    all &= k;
  }
  const std::uint64_t varying = any ^ all;
  if (varying == 0) return;
  std::vector<std::uint64_t> buf(keys.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t k : keys) ++start[((k >> shift) & 0xFF) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const std::uint64_t k : keys) buf[start[(k >> shift) & 0xFF]++] = k;
    keys.swap(buf);
  }
}

/// Calls visit(value, count) once per distinct value of `xs`, in
/// ascending value order: a sort of a copy, then a walk over its runs.
template <typename Visit>
void for_each_run(std::span<const std::uint64_t> xs, Visit&& visit) {
  std::vector<std::uint64_t> sorted(xs.begin(), xs.end());
  radix_sort(sorted);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    visit(sorted[i], static_cast<std::uint64_t>(j - i));
    i = j;
  }
}

}  // namespace

std::map<std::uint64_t, std::uint64_t> multiplicities(
    std::span<const std::uint64_t> xs) {
  std::map<std::uint64_t, std::uint64_t> m;
  for_each_run(xs, [&](std::uint64_t value, std::uint64_t count) {
    m.emplace_hint(m.end(), value, count);
  });
  return m;
}

ValueProfile value_profile(std::span<const std::uint64_t> xs) {
  ValueProfile vp;
  const double n = static_cast<double>(xs.size());
  for_each_run(xs, [&](std::uint64_t, std::uint64_t count) {
    const double p = static_cast<double>(count) / n;
    vp.entropy_bits -= p * std::log2(p);
    vp.max_multiplicity = std::max(vp.max_multiplicity, count);
  });
  return vp;
}

double shannon_entropy(std::span<const std::uint64_t> xs) {
  return value_profile(xs).entropy_bits;
}

std::map<std::uint64_t, std::uint64_t> contention_spectrum(
    std::span<const std::uint64_t> xs) {
  std::map<std::uint64_t, std::uint64_t> spectrum;
  for_each_run(xs, [&](std::uint64_t, std::uint64_t count) {
    ++spectrum[count];
  });
  return spectrum;
}

std::vector<std::uint64_t> log2_buckets(std::span<const std::uint64_t> xs) {
  std::vector<std::uint64_t> buckets;
  for (const auto x : xs) {
    const unsigned b = x <= 1 ? 0 : util::log2_floor(x);
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  return buckets;
}

}  // namespace dxbsp::stats
