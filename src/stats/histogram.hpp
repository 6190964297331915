#pragma once
// Histograms and distribution measures over address/key traces.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace dxbsp::stats {

// Every function here that looks at value multiplicities makes one pass
// over a sorted copy of the trace, visiting the distinct values in
// ascending order. Sums over them (the entropy) therefore add their terms
// in a fixed order, which keeps figure output byte-stable.

/// Multiplicity histogram: for each distinct value, how many times it
/// occurs. Returned sorted by value.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> multiplicities(
    std::span<const std::uint64_t> xs);

/// Empirical Shannon entropy (bits) of the value distribution of `xs`:
/// H = -Σ p_v log2 p_v over distinct values v. A trace of n distinct
/// values has entropy log2(n); all-equal values have entropy 0. This is
/// the measure Thearling & Smith use to grade key distributions.
[[nodiscard]] double shannon_entropy(std::span<const std::uint64_t> xs);

/// Entropy and hottest-value multiplicity of a trace from one sorted pass.
struct ValueProfile {
  double entropy_bits = 0.0;           ///< shannon_entropy(xs)
  std::uint64_t max_multiplicity = 0;  ///< k; 0 for an empty trace
};

/// shannon_entropy and the max multiplicity of `xs` together, for callers
/// that need both (the entropy family) without a second pass.
[[nodiscard]] ValueProfile value_profile(std::span<const std::uint64_t> xs);

/// Contention spectrum: counts[c] = number of distinct locations with
/// multiplicity exactly c (c >= 1). Useful for characterizing traces
/// beyond the max.
[[nodiscard]] std::map<std::uint64_t, std::uint64_t> contention_spectrum(
    std::span<const std::uint64_t> xs);

/// Log-2 bucketed histogram of sample values: bucket b holds values in
/// [2^b, 2^{b+1}); bucket 0 holds {0, 1}. Compact summaries for tables.
[[nodiscard]] std::vector<std::uint64_t> log2_buckets(
    std::span<const std::uint64_t> xs);

}  // namespace dxbsp::stats
