#pragma once
// Generators for the memory access patterns the paper's experiments use.
//
// Every generator returns a trace of word addresses (one per request) and
// takes an explicit seed; traces are shuffled so hot requests are spread
// through the issue order, as they would be across a vectorized loop.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace dxbsp::workload {

/// n requests, all to distinct pseudo-random addresses in [0, space).
/// (space must be >= n.) The baseline "no location contention" pattern.
[[nodiscard]] std::vector<std::uint64_t> distinct_random(std::uint64_t n,
                                                         std::uint64_t space,
                                                         std::uint64_t seed);

/// n requests uniformly at random in [0, space) — duplicates allowed.
[[nodiscard]] std::vector<std::uint64_t> uniform_random(std::uint64_t n,
                                                        std::uint64_t space,
                                                        std::uint64_t seed);

/// Experiment-1 pattern: one hot location receives exactly k requests;
/// the remaining n-k requests go to distinct random addresses. k in [1,n].
[[nodiscard]] std::vector<std::uint64_t> k_hot(std::uint64_t n, std::uint64_t k,
                                               std::uint64_t space,
                                               std::uint64_t seed);

/// Experiment-2 pattern: `hot_locations` distinct hot addresses, each
/// receiving exactly k requests; the rest distinct random.
/// Requires hot_locations * k <= n.
[[nodiscard]] std::vector<std::uint64_t> multi_hot(std::uint64_t n,
                                                   std::uint64_t hot_locations,
                                                   std::uint64_t k,
                                                   std::uint64_t space,
                                                   std::uint64_t seed);

/// Constant-stride pattern: base, base+stride, base+2·stride, ...
/// (The classic vector access; adversarial for interleaved mappings when
/// the stride shares factors with the bank count.)
[[nodiscard]] std::vector<std::uint64_t> strided(std::uint64_t n,
                                                 std::uint64_t stride,
                                                 std::uint64_t base = 0);

/// Addresses i mod period: every location in [0, period) receives
/// ceil-or-floor of n/period requests. period >= 1.
[[nodiscard]] std::vector<std::uint64_t> cyclic(std::uint64_t n,
                                                std::uint64_t period);

/// A uniformly random permutation of [0, n) — n requests, all distinct,
/// covering a dense region.
[[nodiscard]] std::vector<std::uint64_t> random_permutation(std::uint64_t n,
                                                            std::uint64_t seed);

/// Zipf-distributed requests: address r in [0, space) is drawn with
/// probability proportional to 1/(r+1)^theta — the standard model of
/// skewed access in irregular applications (theta = 0 is uniform;
/// theta ~ 1 gives the classic heavy head). space is capped at 2^22
/// (the inverse-CDF table is materialized).
[[nodiscard]] std::vector<std::uint64_t> zipf(std::uint64_t n,
                                              std::uint64_t space,
                                              double theta,
                                              std::uint64_t seed);

/// The inverse-CDF table zipf draws from: cdf[r] = Σ_{s ≤ r} 1/(s+1)^theta
/// for r in [0, space), added strictly in rank order, so every entry has
/// the bits of a plain serial loop. The terms are computed in parallel for
/// large tables (docs/performance.md §host-side access analysis); zipf
/// builds one per call and keeps none. space must be in [1, 2^22] and
/// theta >= 0, as for zipf.
class ZipfTable {
 public:
  ZipfTable(std::uint64_t space, double theta);

  [[nodiscard]] std::span<const double> cdf() const noexcept {
    return {cdf_.get(), space_};
  }

  /// The sum of all terms: cdf()[space - 1].
  [[nodiscard]] double total() const noexcept { return block_end_.back(); }

  /// The first r with cdf()[r] >= u (space if none), as std::lower_bound
  /// over the whole table returns, found in a block index holding cdf at
  /// the end of each 64-rank block and then in one block.
  [[nodiscard]] std::uint64_t rank(double u) const;

 private:
  static constexpr std::uint64_t kChunk = 1ULL << 14;  ///< ranks per claim
  static constexpr std::uint64_t kBlock = 64;  ///< ranks per index entry
  static constexpr std::uint64_t kSerialBelow = 1ULL << 16;

  std::uint64_t space_;
  std::vector<double> block_end_;  ///< cdf at the last rank of each block
  std::unique_ptr<double[]> cdf_;  ///< not zero-filled: every rank is set
};

/// In-place Fisher–Yates shuffle with the library RNG (exposed because
/// several generators and algorithms need exactly this, deterministically).
void shuffle(std::vector<std::uint64_t>& xs, std::uint64_t seed);

// ---- Slab-wise (out-of-core) generators --------------------------------
//
// The generators above materialize the whole trace, so a billion-element
// workload would need the very memory budget the streaming executor
// exists to avoid. Stream generators are counter-based instead: element
// i is a pure O(1) function of (seed, i), so any slab [begin, begin+count)
// of the logical trace can be produced independently, in any order, and
// twice if a crash-resume re-ingests it — always with identical bytes.

/// Element `i` of the deterministic uniform stream for `seed`: a
/// splitmix-mixed counter reduced to [0, space) by multiply-shift (no
/// modulo bias worth caring about for simulator-sized spaces). When
/// `hot_every` > 0, every hot_every-th element (i % hot_every == 0) hits
/// address 0 instead — the streaming analogue of the k-hot patterns.
[[nodiscard]] std::uint64_t stream_element(std::uint64_t seed, std::uint64_t i,
                                           std::uint64_t space,
                                           std::uint64_t hot_every = 0);

/// Materializes elements [begin, begin+count) of the stream — one slab.
/// stream_slab(s, 0, n, sp) == concatenation of any slab partition of
/// [0, n), which is what makes streaming runs byte-comparable to in-RAM
/// runs of the same workload.
[[nodiscard]] std::vector<std::uint64_t> stream_slab(std::uint64_t seed,
                                                     std::uint64_t begin,
                                                     std::uint64_t count,
                                                     std::uint64_t space,
                                                     std::uint64_t hot_every = 0);

}  // namespace dxbsp::workload
