// Tests for util: RNG determinism and ranges, bit helpers, statistics,
// table formatting, CLI parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <unordered_map>

#include "resilience/error.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/flat_map.hpp"
#include "util/multiplicity.hpp"
#include "util/rng.hpp"
#include "util/scratch.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dxbsp {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  util::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, XoshiroIsDeterministic) {
  util::Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  util::Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  util::Xoshiro256 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  util::Xoshiro256 rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, OddAlwaysOdd) {
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.odd() & 1, 1u);
}

TEST(Rng, RangeInclusive) {
  util::Xoshiro256 rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SubstreamsAreIndependentSeeds) {
  EXPECT_NE(util::substream(1, 0), util::substream(1, 1));
  EXPECT_NE(util::substream(1, 0), util::substream(2, 0));
  EXPECT_EQ(util::substream(1, 0), util::substream(1, 0));
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(util::is_pow2(0));
  EXPECT_TRUE(util::is_pow2(1));
  EXPECT_TRUE(util::is_pow2(2));
  EXPECT_FALSE(util::is_pow2(3));
  EXPECT_TRUE(util::is_pow2(1ULL << 40));
  EXPECT_FALSE(util::is_pow2((1ULL << 40) + 1));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(util::log2_floor(1), 0u);
  EXPECT_EQ(util::log2_floor(2), 1u);
  EXPECT_EQ(util::log2_floor(3), 1u);
  EXPECT_EQ(util::log2_floor(4), 2u);
  EXPECT_EQ(util::log2_floor(1023), 9u);
  EXPECT_EQ(util::log2_floor(1024), 10u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(util::log2_ceil(1), 0u);
  EXPECT_EQ(util::log2_ceil(2), 1u);
  EXPECT_EQ(util::log2_ceil(3), 2u);
  EXPECT_EQ(util::log2_ceil(4), 2u);
  EXPECT_EQ(util::log2_ceil(5), 3u);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(util::ceil_div(0, 4), 0u);
  EXPECT_EQ(util::ceil_div(1, 4), 1u);
  EXPECT_EQ(util::ceil_div(4, 4), 1u);
  EXPECT_EQ(util::ceil_div(5, 4), 2u);
}

TEST(Bits, CeilDivDoesNotWrapNearMax) {
  constexpr std::uint64_t kMax = ~0ULL;
  EXPECT_EQ(util::ceil_div(kMax, 2), (kMax >> 1) + 1);
  EXPECT_EQ(util::ceil_div(kMax, kMax), 1u);
  EXPECT_EQ(util::ceil_div(kMax, 1), kMax);
  EXPECT_EQ(util::ceil_div(kMax - 1, kMax), 1u);
  EXPECT_EQ(util::ceil_div(kMax, 3), kMax / 3);  // 3 divides 2^64 - 1
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(util::reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(util::reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(util::reverse_bits(1, 64), 1ULL << 63);
  // Involution property.
  for (std::uint64_t v : {0ULL, 5ULL, 123456789ULL}) {
    EXPECT_EQ(util::reverse_bits(util::reverse_bits(v, 64), 64), v);
  }
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const auto s = util::summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const auto s = util::summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Quantile) {
  const std::vector<double> xs = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(util::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(util::quantile(xs, 0.5), 3.0);
  EXPECT_THROW((void)util::quantile(xs, 1.5), std::invalid_argument);
  EXPECT_THROW((void)util::quantile(std::span<const double>{}, 0.5),
               std::invalid_argument);
}

TEST(Stats, AccumulatorMatchesSummary) {
  util::Xoshiro256 rng(3);
  std::vector<double> xs;
  util::Accumulator acc;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10;
    xs.push_back(x);
    acc.add(x);
  }
  const auto s = util::summarize(xs);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-9);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
}

TEST(Stats, RmsRelativeError) {
  const std::vector<double> pred = {110, 90};
  const std::vector<double> meas = {100, 100};
  EXPECT_NEAR(util::rms_relative_error(pred, meas), 0.1, 1e-12);
}

TEST(Stats, GeomeanRatio) {
  const std::vector<double> pred = {200, 50};
  const std::vector<double> meas = {100, 100};
  EXPECT_NEAR(util::geomean_ratio(pred, meas), 1.0, 1e-12);
}

TEST(Table, AlignsAndCounts) {
  util::Table t({"a", "b"});
  t.add_row(1, "xy");
  t.add_row(22, 3.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("22"), std::string::npos);
  EXPECT_NE(os.str().find("xy"), std::string::npos);
}

TEST(Table, CsvOutput) {
  util::Table t({"x", "y"});
  t.add_row(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row(1), std::invalid_argument);
  EXPECT_THROW(util::Table({}), std::invalid_argument);
}

TEST(Table, WithCommas) {
  EXPECT_EQ(util::with_commas(0), "0");
  EXPECT_EQ(util::with_commas(999), "999");
  EXPECT_EQ(util::with_commas(1000), "1,000");
  EXPECT_EQ(util::with_commas(1234567), "1,234,567");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=100", "--name", "test", "--flag", "pos"};
  const util::Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_EQ(cli.get("name", ""), "test");
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, BareTrailingFlagIsBoolean) {
  const char* argv[] = {"prog", "--csv"};
  const util::Cli cli(2, argv);
  EXPECT_TRUE(cli.has("csv"));
}

TEST(Cli, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  const util::Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), dxbsp::Error);
}

TEST(Cli, DoubleFlag) {
  const char* argv[] = {"prog", "--rho=1.5"};
  const util::Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.0), 1.5);
}

TEST(Cli, IntegerRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--n=8x"};
  const util::Cli cli(2, argv);
  try {
    (void)cli.get_int("n", 0);
    FAIL() << "expected Error";
  } catch (const dxbsp::Error& e) {
    EXPECT_EQ(e.code(), dxbsp::ErrorCode::kParse);
    // The message must name the offending flag so a user with ten flags
    // knows which one to fix.
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
}

TEST(Cli, IntegerRejectsOverflow) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  const util::Cli cli(2, argv);
  try {
    (void)cli.get_int("n", 0);
    FAIL() << "expected Error";
  } catch (const dxbsp::Error& e) {
    EXPECT_EQ(e.code(), dxbsp::ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Cli, IntegerRejectsEmptyValue) {
  const char* argv[] = {"prog", "--n="};
  const util::Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), dxbsp::Error);
}

TEST(Cli, IntegerAcceptsNegative) {
  const char* argv[] = {"prog", "--delta=-12"};
  const util::Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("delta", 0), -12);
}

TEST(Cli, UnsignedRejectsNegative) {
  const char* argv[] = {"prog", "--n=-5"};
  const util::Cli cli(2, argv);
  try {
    (void)cli.get_uint("n", 0);
    FAIL() << "expected Error";
  } catch (const dxbsp::Error& e) {
    EXPECT_EQ(e.code(), dxbsp::ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos);
  }
}

TEST(Cli, UnsignedParsesLargeValues) {
  // Values above INT64_MAX are fine for a uint flag.
  const char* argv[] = {"prog", "--n=18446744073709551615"};
  const util::Cli cli(2, argv);
  EXPECT_EQ(cli.get_uint("n", 0), 18446744073709551615ULL);
}

TEST(Cli, DoubleRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--rho=1.5abc"};
  const util::Cli cli(2, argv);
  try {
    (void)cli.get_double("rho", 0.0);
    FAIL() << "expected Error";
  } catch (const dxbsp::Error& e) {
    EXPECT_EQ(e.code(), dxbsp::ErrorCode::kParse);
    EXPECT_NE(std::string(e.what()).find("--rho"), std::string::npos);
  }
}

TEST(Cli, DoubleRejectsOverflow) {
  const char* argv[] = {"prog", "--rho=1e999"};
  const util::Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_double("rho", 0.0), dxbsp::Error);
}

TEST(Cli, DoubleAcceptsScientificNotation) {
  const char* argv[] = {"prog", "--rho=2.5e-3"};
  const util::Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.0), 2.5e-3);
}

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::vector<int> done(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { done[i] = 1; });
  for (int d : done) EXPECT_EQ(d, 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForHandlesLargeIndexSpaces) {
  // Chunked dispatch: a large loop must not enqueue one task (and one
  // future) per index. Correctness check: every index runs exactly once.
  util::ThreadPool pool(4);
  const std::size_t n = 1 << 20;
  std::vector<std::atomic<std::uint8_t>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1u);
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAfterCompletion) {
  util::ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<std::uint8_t>> hits(n);
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("first");
      if (i == n - 1) throw std::runtime_error("later");
      hits[i].fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // lowest chunk wins
  }
  // No detached work: by the time parallel_for returned, every
  // non-throwing index had executed.
  std::size_t ran = 0;
  for (std::size_t i = 0; i < n; ++i) ran += hits[i].load();
  EXPECT_EQ(ran, n - 2);
}

// ---- FlatMap64 ----

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  util::FlatMap64 fm;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  util::SplitMix64 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng() % 512;  // small space: many overwrites
    switch (rng() % 3) {
      case 0: {
        const std::uint64_t val = rng();
        fm.insert_or_assign(key, val);
        ref[key] = val;
        break;
      }
      case 1: {
        const std::uint64_t* got = fm.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) ASSERT_EQ(*got, it->second);
        break;
      }
      default: {
        ASSERT_EQ(fm.size(), ref.size());
        break;
      }
    }
  }
}

TEST(FlatMap, HandlesTheSentinelKey) {
  // ~0 is FlatMap64's internal empty marker; as a user key it must
  // still round-trip (BankArray combines on raw addresses).
  util::FlatMap64 fm;
  EXPECT_EQ(fm.find(~0ULL), nullptr);
  fm.insert_or_assign(~0ULL, 123);
  ASSERT_NE(fm.find(~0ULL), nullptr);
  EXPECT_EQ(*fm.find(~0ULL), 123u);
  EXPECT_EQ(fm.size(), 1u);
  fm.insert_or_assign(~0ULL, 456);
  EXPECT_EQ(*fm.find(~0ULL), 456u);
  EXPECT_EQ(fm.size(), 1u);
  fm.clear();
  EXPECT_EQ(fm.find(~0ULL), nullptr);
  EXPECT_TRUE(fm.empty());
}

TEST(FlatMap, ClearAndReserveKeepCapacity) {
  util::FlatMap64 fm;
  fm.reserve(1000);
  const std::size_t cap = fm.capacity();
  EXPECT_GE(cap, 2000u);  // load factor <= 1/2
  for (std::uint64_t k = 0; k < 1000; ++k) fm.insert_or_assign(k, k);
  EXPECT_EQ(fm.capacity(), cap);  // reserved: no mid-run rehash
  fm.clear();
  EXPECT_EQ(fm.capacity(), cap);
  EXPECT_TRUE(fm.empty());
  EXPECT_EQ(fm.find(17), nullptr);
}

// ---- MultiplicityCounter ----

TEST(MultiplicityCounter, MatchesUnorderedMapCounting) {
  util::MultiplicityCounter mc;
  util::SplitMix64 rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng() % 3000;
    const std::uint64_t space = 1 + rng() % 700;  // force repeats
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng() % space;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t want = 0;
    for (const auto k : keys) want = std::max(want, ++ref[k]);
    // Each call is an independent count: round r must not see round
    // r-1's tallies (the epoch tag, not a memset, invalidates them).
    ASSERT_EQ(mc.max_multiplicity(keys), want) << "round " << round;
  }
}

TEST(MultiplicityCounter, EmptyAllEqualAndSentinelKeys) {
  util::MultiplicityCounter mc;
  EXPECT_EQ(mc.max_multiplicity({}), 0u);
  std::vector<std::uint64_t> same(257, ~0ULL);  // sentinel-looking key
  EXPECT_EQ(mc.max_multiplicity(same), 257u);
  std::vector<std::uint64_t> distinct(100);
  for (std::uint64_t i = 0; i < 100; ++i) distinct[i] = i * 977;
  EXPECT_EQ(mc.max_multiplicity(distinct), 1u);
}

TEST(MultiplicityCounter, GrowthMidSweepKeepsCountsExact) {
  util::MultiplicityCounter mc;
  std::vector<std::uint64_t> small{1, 2, 1};
  EXPECT_EQ(mc.max_multiplicity(small), 2u);
  const std::size_t cap_before = mc.capacity();
  std::vector<std::uint64_t> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i % 1250;
  EXPECT_EQ(mc.max_multiplicity(big), 4u);
  EXPECT_GT(mc.capacity(), cap_before);
  // Shrinking input after growth keeps capacity and stays correct.
  EXPECT_EQ(mc.max_multiplicity(small), 2u);
  EXPECT_EQ(mc.max_multiplicity(big), 4u);
}

// ---- ScratchArena ----

TEST(ScratchArena, ReturnsTheSameBufferPerTypeAndSlot) {
  util::ScratchArena arena;
  auto& a = arena.vec<std::uint64_t>(0);
  a.assign(100, 7);
  auto& b = arena.vec<std::uint64_t>(0);
  EXPECT_EQ(&a, &b);  // stable reference
  EXPECT_EQ(b.size(), 100u);  // contents persist
  // Distinct slots and distinct types never alias.
  auto& c = arena.vec<std::uint64_t>(1);
  EXPECT_NE(&a, &c);
  EXPECT_TRUE(c.empty());
  auto& d = arena.vec<std::uint32_t>(0);
  EXPECT_TRUE(d.empty());
}

TEST(ScratchArena, CapacityIsReusedAcrossCycles) {
  util::ScratchArena arena;
  auto& buf = arena.vec<std::uint64_t>();
  buf.resize(1 << 16);
  const std::size_t cap = buf.capacity();
  buf.clear();
  buf.resize(1 << 10);  // later, smaller use: no reallocation
  EXPECT_EQ(arena.vec<std::uint64_t>().capacity(), cap);
  arena.shrink();
  EXPECT_TRUE(arena.vec<std::uint64_t>().empty());
}

}  // namespace
}  // namespace dxbsp
