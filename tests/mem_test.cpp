// Tests for mem: universal hash families, bank mappings, contention
// analysis. Includes the statistical universality property checks.

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"
#include "mem/hash.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace dxbsp {
namespace {

TEST(Hash, Deterministic) {
  util::Xoshiro256 rng(1);
  const mem::PolynomialHash h(mem::HashDegree::kQuadratic, 20, rng);
  EXPECT_EQ(h(12345), h(12345));
}

TEST(Hash, OutputFitsOutBits) {
  util::Xoshiro256 rng(2);
  for (unsigned bits : {1u, 8u, 20u, 63u}) {
    const mem::PolynomialHash h(mem::HashDegree::kCubic, bits, rng);
    util::Xoshiro256 inputs(3);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = h(inputs());
      if (bits < 64) {
        EXPECT_LT(v, 1ULL << bits);
      }
    }
  }
}

TEST(Hash, RejectsBadArguments) {
  util::Xoshiro256 rng(4);
  EXPECT_THROW(mem::PolynomialHash(mem::HashDegree::kLinear, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(mem::PolynomialHash(mem::HashDegree::kLinear, 65, rng),
               std::invalid_argument);
  EXPECT_THROW(mem::PolynomialHash(mem::HashDegree::kLinear, 8, 2, 1, 1),
               std::invalid_argument);  // even coefficient
}

TEST(Hash, OpCountIncreasesWithDegree) {
  util::Xoshiro256 rng(5);
  const mem::PolynomialHash h1(mem::HashDegree::kLinear, 16, rng);
  const mem::PolynomialHash h2(mem::HashDegree::kQuadratic, 16, rng);
  const mem::PolynomialHash h3(mem::HashDegree::kCubic, 16, rng);
  EXPECT_LT(h1.op_count(), h2.op_count());
  EXPECT_LT(h2.op_count(), h3.op_count());
}

TEST(Hash, ToString) {
  EXPECT_EQ(mem::to_string(mem::HashDegree::kLinear), "linear");
  EXPECT_EQ(mem::to_string(mem::HashDegree::kQuadratic), "quadratic");
  EXPECT_EQ(mem::to_string(mem::HashDegree::kCubic), "cubic");
}

/// Statistical 2-universality: over many coefficient draws, the fraction
/// of draws on which a fixed pair collides must be close to 2^-m
/// (the [DHKP93] guarantee is <= 2/2^m for the multiplicative scheme).
class HashUniversality : public ::testing::TestWithParam<mem::HashDegree> {};

TEST_P(HashUniversality, PairCollisionProbabilityIsLow) {
  constexpr unsigned kOutBits = 8;  // 256 slots
  constexpr int kDraws = 4000;
  const std::uint64_t x = 0x1234'5678'9abcULL;
  const std::uint64_t y = 0xfeed'beef'0001ULL;
  util::Xoshiro256 rng(77);
  int collisions = 0;
  for (int i = 0; i < kDraws; ++i) {
    const mem::PolynomialHash h(GetParam(), kOutBits, rng);
    collisions += (h(x) == h(y));
  }
  const double rate = static_cast<double>(collisions) / kDraws;
  // 2-universality allows up to 2/256 ~ 0.0078; allow 3 sigma slack.
  EXPECT_LT(rate, 0.016);
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, HashUniversality,
                         ::testing::Values(mem::HashDegree::kLinear,
                                           mem::HashDegree::kQuadratic,
                                           mem::HashDegree::kCubic));

TEST(BankMapping, InterleavedIsModulo) {
  const mem::InterleavedMapping m(8);
  EXPECT_EQ(m.bank_of(0), 0u);
  EXPECT_EQ(m.bank_of(7), 7u);
  EXPECT_EQ(m.bank_of(8), 0u);
  EXPECT_EQ(m.bank_of(13), 5u);
}

TEST(BankMapping, RejectsZeroBanks) {
  EXPECT_THROW(mem::InterleavedMapping(0), std::invalid_argument);
}

TEST(BankMapping, AllMappingsStayInRange) {
  util::Xoshiro256 rng(6);
  for (const char* name :
       {"interleaved", "bit-reversal", "linear", "quadratic", "cubic"}) {
    const auto m = mem::make_mapping(name, 24, rng);
    EXPECT_EQ(m->num_banks(), 24u);
    util::Xoshiro256 inputs(7);
    for (int i = 0; i < 500; ++i) EXPECT_LT(m->bank_of(inputs()), 24u);
  }
}

TEST(BankMapping, FactoryRejectsUnknown) {
  util::Xoshiro256 rng(8);
  EXPECT_THROW(mem::make_mapping("bogus", 8, rng), std::invalid_argument);
}

TEST(BankMapping, MapBatchMatchesScalar) {
  util::Xoshiro256 rng(9);
  const auto m = mem::make_mapping("cubic", 64, rng);
  const auto addrs = workload::uniform_random(1000, 1 << 20, 10);
  std::vector<std::uint64_t> banks(addrs.size());
  m->map(addrs, banks);
  for (std::size_t i = 0; i < addrs.size(); ++i)
    EXPECT_EQ(banks[i], m->bank_of(addrs[i]));
}

TEST(BankMapping, MapSizeMismatchThrows) {
  const mem::InterleavedMapping m(4);
  const std::vector<std::uint64_t> addrs(10);
  std::vector<std::uint64_t> banks(9);
  EXPECT_THROW(m.map(addrs, banks), std::invalid_argument);
}

TEST(BankMapping, HashedSpreadsAPowerOfTwoStride) {
  // Stride-64 access on 64 banks: interleaved puts everything on one
  // bank; a universal hash spreads it out.
  const auto addrs = workload::strided(4096, 64);
  const mem::InterleavedMapping inter(64);
  const auto il = mem::analyze_banks(addrs, inter);
  EXPECT_EQ(il.max_load, 4096u);

  util::Xoshiro256 rng(10);
  const mem::HashedMapping hashed(64, mem::HashDegree::kLinear, rng);
  const auto hl = mem::analyze_banks(addrs, hashed);
  EXPECT_LT(hl.max_load, 4096u / 8);
}

TEST(BankMapping, BitReversalSpreadsContiguousAndOddStrides) {
  const mem::BitReversalMapping m(64);
  for (std::uint64_t stride : {1ULL, 3ULL, 5ULL, 17ULL}) {
    const auto addrs = workload::strided(4096, stride);
    const auto loads = mem::analyze_banks(addrs, m);
    EXPECT_EQ(loads.max_load, 4096u / 64)
        << "stride " << stride << " uneven under bit-reversal";
  }
  // Like every deterministic mapping, it cannot fix strides that are
  // multiples of the bank count — the paper's motivation for hashing.
  const auto bad = workload::strided(4096, 64);
  EXPECT_EQ(mem::analyze_banks(bad, m).max_load, 4096u);
}

TEST(Contention, AnalyzeLocationsBasics) {
  const std::vector<std::uint64_t> addrs = {5, 1, 5, 2, 5, 1};
  const auto lc = mem::analyze_locations(addrs);
  EXPECT_EQ(lc.total, 6u);
  EXPECT_EQ(lc.distinct, 3u);
  EXPECT_EQ(lc.max_contention, 3u);
  EXPECT_DOUBLE_EQ(lc.mean_contention, 2.0);
}

TEST(Contention, AnalyzeLocationsEmpty) {
  const auto lc = mem::analyze_locations(std::span<const std::uint64_t>{});
  EXPECT_EQ(lc.total, 0u);
  EXPECT_EQ(lc.max_contention, 0u);
}

TEST(Contention, AnalyzeBanksTallies) {
  const mem::InterleavedMapping m(4);
  const std::vector<std::uint64_t> addrs = {0, 4, 8, 1, 2};
  const auto bl = mem::analyze_banks(addrs, m);
  EXPECT_EQ(bl.total, 5u);
  EXPECT_EQ(bl.max_load, 3u);  // bank 0 gets addresses 0, 4, 8
  EXPECT_EQ(bl.load[0], 3u);
  EXPECT_EQ(bl.load[1], 1u);
  EXPECT_EQ(bl.load[2], 1u);
  EXPECT_EQ(bl.load[3], 0u);
  EXPECT_EQ(bl.nonempty_banks, 3u);
}

TEST(Contention, LocationForcedMaxLoad) {
  // 10 requests, hottest location 4x, 2 banks: bound is max(4, 10/2) = 5.
  std::vector<std::uint64_t> addrs = {7, 7, 7, 7, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(mem::location_forced_max_load(addrs, 2), 5u);
  // With 100 banks the hot location dominates: 4.
  EXPECT_EQ(mem::location_forced_max_load(addrs, 100), 4u);
  // Zero banks has no meaning (it used to divide by zero).
  EXPECT_THROW((void)mem::location_forced_max_load(addrs, 0),
               std::invalid_argument);
}

/// Property sweep: for k-hot patterns the analyzer must report exactly k.
class KHotContention : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KHotContention, MaxContentionIsExactlyK) {
  const std::uint64_t k = GetParam();
  const auto addrs = workload::k_hot(5000, k, 1 << 22, 123);
  EXPECT_EQ(addrs.size(), 5000u);
  EXPECT_EQ(mem::analyze_locations(addrs).max_contention, std::max<std::uint64_t>(k, 1));
}

INSTANTIATE_TEST_SUITE_P(Ks, KHotContention,
                         ::testing::Values(1, 2, 3, 8, 64, 513, 5000));

}  // namespace
}  // namespace dxbsp
