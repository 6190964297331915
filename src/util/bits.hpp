#pragma once
// Small bit-manipulation helpers shared across the library.

#include <bit>
#include <cassert>
#include <cstdint>

namespace dxbsp::util {

/// True iff v is a power of two (0 is not).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Smallest power of two >= v (v must be >= 1 and representable).
[[nodiscard]] constexpr std::uint64_t ceil_pow2(std::uint64_t v) noexcept {
  return std::bit_ceil(v);
}

/// floor(log2(v)); v must be nonzero.
[[nodiscard]] constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/// ceil(log2(v)); v must be nonzero.
[[nodiscard]] constexpr unsigned log2_ceil(std::uint64_t v) noexcept {
  return v <= 1 ? 0u : log2_floor(v - 1) + 1u;
}

/// ceil(a / b) for nonnegative integers, b > 0. Exact over the whole
/// range: no a + b - 1 intermediate that wraps near UINT64_MAX.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// Reverses the low `bits` bits of v (classic bit-reversal permutation,
/// used by the bit-reversal bank mapping).
[[nodiscard]] constexpr std::uint64_t reverse_bits(std::uint64_t v,
                                                   unsigned bits) noexcept {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

}  // namespace dxbsp::util
