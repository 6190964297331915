#pragma once
// MultiplicityCounter: batched max-multiplicity and distinct count of a
// key stream (the QRQW location-contention k charged per bulk op, and the
// distinct-location count of mem::analyze_locations; docs/performance.md).
// It is the library's one location-contention count.
//
// The naive form — a hash-map bump per element — costs two dependent
// cache misses per key (separate key and value arrays) plus a full
// table memset per operation. This counter restructures the same
// counting for the bulk-op hot path:
//   * one 16-byte slot holds {key, epoch, count}, so a probe touches a
//     single cache line;
//   * slots are invalidated by bumping a 32-bit epoch instead of
//     clearing, so back-to-back operations pay no memset (the table is
//     only wiped when the epoch wraps, once every 2^32 - 1 operations);
//   * the scan software-prefetches a fixed distance ahead, overlapping
//     the unavoidable per-key miss with useful work.
// Load factor is capped at 1/2; capacity is kept across calls, so a
// counter sized once per sweep never rehashes mid-pass.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dxbsp::util {

/// Result of one MultiplicityCounter pass.
struct Multiplicity {
  std::uint64_t max = 0;       ///< hottest key's multiplicity (0 if empty)
  std::uint64_t distinct = 0;  ///< number of distinct keys
};

class MultiplicityCounter {
 public:
  /// Largest span one call accepts. Per-key counts are 32-bit, so a
  /// longer span could wrap a count; it is rejected instead.
  static constexpr std::size_t kMaxKeys = 0xFFFFFFFEU;

  /// Max multiplicity and distinct count over `keys` ({0, 0} for an
  /// empty span). Each call is an independent count — nothing carries
  /// over from previous calls. Throws std::length_error for spans longer
  /// than kMaxKeys.
  [[nodiscard]] Multiplicity count(std::span<const std::uint64_t> keys) {
    const std::size_t n = keys.size();
    if (n == 0) return {};
    if (n > kMaxKeys)
      throw std::length_error("MultiplicityCounter: span exceeds kMaxKeys");
    reserve(n);
    if (++epoch_ == 0) {
      // Epoch wrapped: every stale tag is now "current". Wipe once.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    const std::uint32_t cur = epoch_;
    constexpr std::size_t kPrefetch = 16;
    std::uint32_t best = 1;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kPrefetch < n)
        __builtin_prefetch(&slots_[probe_start(keys[i + kPrefetch])], 1);
#endif
      const std::uint64_t key = keys[i];
      std::size_t j = probe_start(key);
      while (true) {
        Slot& s = slots_[j];
        if (s.epoch != cur) {
          s.key = key;
          s.epoch = cur;
          s.count = 1;
          ++distinct;
          break;
        }
        if (s.key == key) {
          best = std::max(best, ++s.count);
          break;
        }
        j = (j + 1) & mask_;
      }
    }
    return {best, distinct};
  }

  /// Grows so a span of `n` keys counts without rehashing. Never
  /// shrinks; growth discards stale tags (fresh slots, epoch 0).
  void reserve(std::size_t n) {
    const std::size_t want = cap_for(n);
    if (want <= slots_.size()) return;
    slots_.assign(want, Slot{});
    mask_ = want - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(want));
    epoch_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  friend struct MultiplicityCounterTestPeer;  // drives the epoch wrap

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;  // tag: valid only when == current epoch
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Slot) == 16);

  [[nodiscard]] static std::size_t cap_for(std::size_t n) noexcept {
    return std::bit_ceil(std::max<std::size_t>(2 * n, 16));
  }

  /// Fibonacci hashing on the top bits, matching FlatMap64.
  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::uint32_t epoch_ = 0;
};

}  // namespace dxbsp::util
