#include "workload/patterns.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dxbsp::workload {

namespace {

/// Appends `count` distinct random addresses from [0, space) to `out`,
/// avoiding everything already in `used` (a set: only membership is
/// read, so a key's first bump() is its insertion).
void append_distinct(std::vector<std::uint64_t>& out, util::FlatMap64& used,
                     std::uint64_t count, std::uint64_t space,
                     util::Xoshiro256& rng) {
  if (used.size() + count > space)
    throw std::invalid_argument("address space too small for distinct draw");
  used.reserve(used.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t a;
    do {
      a = rng.below(space);
    } while (used.bump(a) != 1);
    out.push_back(a);
  }
}

/// std::lower_bound(xs, xs + len, u) - xs for len >= 1, without a branch
/// on the data: random u would mispredict about half of the steps.
std::uint64_t lower_bound_index(const double* xs, std::uint64_t len,
                                double u) {
  const double* base = xs;
  while (len > 1) {
    const std::uint64_t half = len / 2;
    base = base[half] < u ? base + half : base;
    len -= half;
  }
  return static_cast<std::uint64_t>(base - xs) + (*base < u ? 1 : 0);
}

/// The argument rule zipf and ZipfTable share.
void check_zipf_args(std::uint64_t space, double theta) {
  if (space == 0 || space > (1ULL << 22))
    throw std::invalid_argument("zipf: space must be in [1, 2^22]");
  if (theta < 0.0) throw std::invalid_argument("zipf: theta must be >= 0");
}

}  // namespace

// The terms are independent, so threads started for the build (tables of
// kSerialBelow ranks or more) compute them in kChunk-rank chunks, claimed
// from an atomic counter, straight into the table. The calling thread
// turns each chunk into prefix sums, in rank order, as soon as it is
// ready, and computes unclaimed chunks itself while it waits; a thread
// that cannot be started leaves its chunks to the others.
ZipfTable::ZipfTable(std::uint64_t space, double theta) : space_(space) {
  check_zipf_args(space, theta);
  cdf_.reset(new double[space]);
  block_end_.resize((space + kBlock - 1) / kBlock);
  const std::uint64_t chunks = (space + kChunk - 1) / kChunk;
  double* const cdf = cdf_.get();
  std::atomic<std::uint64_t> next{0};
  std::vector<std::atomic<bool>> ready(chunks);
  // Computes the terms of one unclaimed chunk; false once none is left.
  // pow(x, 1) == x for every rank here (workload_test checks it over the
  // whole range), so theta == 1 skips the call with identical bits.
  const auto claim = [&] {
    const std::uint64_t c = next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return false;
    const std::uint64_t end = std::min(space, (c + 1) * kChunk);
    for (std::uint64_t r = c * kChunk; r < end; ++r) {
      const double x = static_cast<double>(r + 1);
      cdf[r] = 1.0 / (theta == 1.0 ? x : std::pow(x, theta));
    }
    ready[c].store(true, std::memory_order_release);
    return true;
  };
  std::vector<std::jthread> workers;
  if (space >= kSerialBelow) {
    const std::uint64_t threads = std::min<std::uint64_t>(
        std::max(1U, std::thread::hardware_concurrency()), chunks);
    workers.reserve(threads - 1);
    try {
      while (workers.size() + 1 < threads)
        workers.emplace_back([&] {
          while (claim()) {
          }
        });
    } catch (const std::system_error&) {
      // Run with the threads that did start.
    }
  }
  double acc = 0.0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    while (!ready[c].load(std::memory_order_acquire))
      if (!claim()) std::this_thread::yield();
    const std::uint64_t end = std::min(space, (c + 1) * kChunk);
    for (std::uint64_t b = c * kChunk; b < end; b += kBlock) {
      const std::uint64_t block_end = std::min(end, b + kBlock);
      for (std::uint64_t r = b; r < block_end; ++r) {
        acc += cdf[r];
        cdf[r] = acc;
      }
      block_end_[b / kBlock] = acc;
    }
  }
}

std::uint64_t ZipfTable::rank(double u) const {
  const std::uint64_t blk =
      lower_bound_index(block_end_.data(), block_end_.size(), u);
  if (blk == block_end_.size()) return space_;
  const std::uint64_t begin = blk * kBlock;
  return begin + lower_bound_index(cdf_.get() + begin,
                                   std::min(kBlock, space_ - begin), u);
}

std::vector<std::uint64_t> distinct_random(std::uint64_t n, std::uint64_t space,
                                           std::uint64_t seed) {
  if (space < n)
    throw std::invalid_argument("distinct_random: space must be >= n");
  util::Xoshiro256 rng(util::substream(seed, 1));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  if (space <= 2 * n) {
    // Dense case: rejection sampling would thrash; permute a prefix instead.
    std::vector<std::uint64_t> pool(space);
    for (std::uint64_t i = 0; i < space; ++i) pool[i] = i;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t j = i + rng.below(space - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }
  util::FlatMap64 used;
  append_distinct(out, used, n, space, rng);
  return out;
}

std::vector<std::uint64_t> uniform_random(std::uint64_t n, std::uint64_t space,
                                          std::uint64_t seed) {
  if (space == 0) throw std::invalid_argument("uniform_random: empty space");
  util::Xoshiro256 rng(util::substream(seed, 2));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(rng.below(space));
  return out;
}

std::vector<std::uint64_t> k_hot(std::uint64_t n, std::uint64_t k,
                                 std::uint64_t space, std::uint64_t seed) {
  return multi_hot(n, 1, k, space, seed);
}

std::vector<std::uint64_t> multi_hot(std::uint64_t n,
                                     std::uint64_t hot_locations,
                                     std::uint64_t k, std::uint64_t space,
                                     std::uint64_t seed) {
  if (k == 0 || hot_locations == 0)
    throw std::invalid_argument("multi_hot: k and hot_locations must be >= 1");
  if (hot_locations * k > n)
    throw std::invalid_argument("multi_hot: hot requests exceed n");
  if (space < n)
    throw std::invalid_argument("multi_hot: space must be >= n");
  util::Xoshiro256 rng(util::substream(seed, 3));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  util::FlatMap64 used;
  // Draw the hot addresses first, then emit k copies of each.
  std::vector<std::uint64_t> hot;
  append_distinct(hot, used, hot_locations, space, rng);
  for (const std::uint64_t h : hot)
    for (std::uint64_t i = 0; i < k; ++i) out.push_back(h);
  append_distinct(out, used, n - hot_locations * k, space, rng);
  shuffle(out, util::substream(seed, 4));
  return out;
}

std::vector<std::uint64_t> strided(std::uint64_t n, std::uint64_t stride,
                                   std::uint64_t base) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(base + i * stride);
  return out;
}

std::vector<std::uint64_t> cyclic(std::uint64_t n, std::uint64_t period) {
  if (period == 0) throw std::invalid_argument("cyclic: period must be >= 1");
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(i % period);
  return out;
}

std::vector<std::uint64_t> random_permutation(std::uint64_t n,
                                              std::uint64_t seed) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = i;
  shuffle(out, util::substream(seed, 5));
  return out;
}

std::vector<std::uint64_t> zipf(std::uint64_t n, std::uint64_t space,
                                double theta, std::uint64_t seed) {
  check_zipf_args(space, theta);
  util::Xoshiro256 rng(util::substream(seed, 6));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  if (theta == 0.0) {
    // pow(x, 0) == 1 exactly (C Annex F), so the table below would hold
    // cdf[r] = r + 1 and acc = space, all exact in double. lower_bound
    // picks the first r with r + 1 >= u: r = max(0, ceil(u) - 1).
    const double total = static_cast<double>(space);
    for (std::uint64_t i = 0; i < n; ++i) {
      const double c = std::ceil(rng.uniform() * total);
      out.push_back(c < 1.0 ? 0 : static_cast<std::uint64_t>(c) - 1);
    }
    return out;
  }
  // Inverse-CDF table over the ranks. The hot ranks sit at the low
  // addresses; callers who need them scattered can hash the result.
  const ZipfTable table(space, theta);
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(table.rank(rng.uniform() * table.total()));
  return out;
}

void shuffle(std::vector<std::uint64_t>& xs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = xs.size(); i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap(xs[i - 1], xs[j]);
  }
}

std::uint64_t stream_element(std::uint64_t seed, std::uint64_t i,
                             std::uint64_t space, std::uint64_t hot_every) {
  if (space == 0)
    throw std::invalid_argument("stream_element: space must be >= 1");
  if (hot_every != 0 && i % hot_every == 0) return 0;
  const std::uint64_t h = util::mix64(util::substream(seed, 7) ^ util::mix64(i));
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * space) >> 64);
}

std::vector<std::uint64_t> stream_slab(std::uint64_t seed, std::uint64_t begin,
                                       std::uint64_t count, std::uint64_t space,
                                       std::uint64_t hot_every) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    out.push_back(stream_element(seed, begin + i, space, hot_every));
  return out;
}

}  // namespace dxbsp::workload
