// Differential tests of the host-side access analysis against
// sort/map reference implementations kept here:
//   * mem::analyze_locations (util::MultiplicityCounter) vs a sort-based
//     {max, distinct} over every workload family and the edge cases;
//   * mem::analyze_banks (bank_of_batch) vs a per-element bank_of tally
//     under all three mappings;
//   * stats::shannon_entropy / value_profile / multiplicities /
//     contention_spectrum vs the std::map formulas, entropy compared by
//     the bytes of the double;
//   * the access profile sim::Machine builds per op (k, distinct count,
//     requested bank load) vs core::profile_access over the same
//     addresses, on every engine and machine feature, and every
//     algos::Vm ledger prediction vs a core::predict_scatter recount.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algos/connected_components.hpp"
#include "algos/radix_sort.hpp"
#include "algos/random_permutation.hpp"
#include "algos/spmv.hpp"
#include "algos/vm.hpp"
#include "core/access_profile.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"
#include "sim/machine.hpp"
#include "stats/histogram.hpp"
#include "util/bits.hpp"
#include "util/multiplicity.hpp"
#include "util/rng.hpp"
#include "workload/entropy.hpp"
#include "workload/graphs.hpp"
#include "workload/patterns.hpp"
#include "workload/sparse.hpp"

namespace dxbsp::util {

/// Reaches the counter's epoch so the wrap path runs without 2^32 calls.
struct MultiplicityCounterTestPeer {
  static void set_epoch(MultiplicityCounter& mc, std::uint32_t epoch) {
    mc.epoch_ = epoch;
  }
};

}  // namespace dxbsp::util

namespace dxbsp {
namespace {

using Trace = std::vector<std::uint64_t>;

struct RefLocations {
  std::uint64_t max = 0;
  std::uint64_t distinct = 0;
};

/// Reference: copy, sort, walk the runs.
RefLocations sorted_reference(const Trace& xs) {
  RefLocations r;
  Trace s = xs;
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < s.size();) {
    std::size_t j = i + 1;
    while (j < s.size() && s[j] == s[i]) ++j;
    r.max = std::max<std::uint64_t>(r.max, j - i);
    ++r.distinct;
    i = j;
  }
  return r;
}

/// Reference: the std::map entropy formula, summed in key order.
double map_entropy(const Trace& xs) {
  if (xs.empty()) return 0.0;
  std::map<std::uint64_t, std::uint64_t> m;
  for (const auto x : xs) ++m[x];
  const double n = static_cast<double>(xs.size());
  double h = 0.0;
  for (const auto& [value, count] : m) {
    (void)value;
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Family {
  std::string name;
  Trace trace;
};

/// One trace per generator the library ships, at sizes that exercise
/// repeats, all-distinct and heavy-head cases.
std::vector<Family> every_family() {
  std::vector<Family> fs;
  fs.push_back({"uniform", workload::uniform_random(20000, 5000, 1)});
  fs.push_back({"distinct_random_sparse",
                workload::distinct_random(20000, 1 << 24, 2)});
  fs.push_back({"distinct_random_dense",
                workload::distinct_random(3000, 4000, 3)});
  fs.push_back({"k_hot", workload::k_hot(20000, 777, 1 << 22, 4)});
  fs.push_back({"multi_hot", workload::multi_hot(20000, 16, 300, 1 << 22, 5)});
  fs.push_back({"strided", workload::strided(20000, 64, 3)});
  fs.push_back({"cyclic", workload::cyclic(20000, 37)});
  for (const double theta : {0.0, 0.5, 0.8, 1.0, 1.2, 1.5})
    fs.push_back({"zipf_" + std::to_string(theta),
                  workload::zipf(20000, 1 << 14, theta, 6)});
  for (const std::uint64_t space : {0ULL, 1ULL << 12}) {
    for (auto& t : workload::entropy_family(20000, 10, 24, space, 7))
      fs.push_back({"entropy_space" + std::to_string(space) + "_round" +
                        std::to_string(t.round),
                    std::move(t.keys)});
  }
  fs.push_back({"random_permutation", workload::random_permutation(20000, 8)});
  fs.push_back({"stream_slab", workload::stream_slab(9, 100, 20000, 1 << 13)});
  fs.push_back({"stream_slab_hot",
                workload::stream_slab(9, 0, 20000, 1 << 20, 50)});
  return fs;
}

void expect_locations_match(const Trace& xs, const std::string& what) {
  const RefLocations ref = sorted_reference(xs);
  const mem::LocationContention lc = mem::analyze_locations(xs);
  EXPECT_EQ(lc.total, xs.size()) << what;
  EXPECT_EQ(lc.max_contention, ref.max) << what;
  EXPECT_EQ(lc.distinct, ref.distinct) << what;
  if (!xs.empty()) {
    const double mean =
        static_cast<double>(xs.size()) / static_cast<double>(ref.distinct);
    EXPECT_TRUE(same_bits(lc.mean_contention, mean)) << what;
  }
}

TEST(AccessAnalysis, LocationsMatchSortedReferenceOnEveryFamily) {
  for (const Family& f : every_family())
    expect_locations_match(f.trace, f.name);
}

TEST(AccessAnalysis, LocationsEdgeCases) {
  expect_locations_match({}, "empty");
  expect_locations_match({42}, "one element");
  expect_locations_match({~0ULL}, "max key alone");
  expect_locations_match(Trace(513, ~0ULL), "max key repeated");
  expect_locations_match({~0ULL, 0, ~0ULL, 1, 0, ~0ULL, ~0ULL - 1},
                         "max key mixed");
  const mem::LocationContention empty = mem::analyze_locations({});
  EXPECT_EQ(empty.distinct, 0u);
  EXPECT_EQ(empty.max_contention, 0u);
}

TEST(AccessAnalysis, CounterMatchesReferenceAcrossReuse) {
  util::MultiplicityCounter mc;
  for (const Family& f : every_family()) {
    const RefLocations ref = sorted_reference(f.trace);
    const util::Multiplicity m = mc.count(f.trace);
    EXPECT_EQ(m.max, ref.max) << f.name;
    EXPECT_EQ(m.distinct, ref.distinct) << f.name;
  }
}

TEST(AccessAnalysis, CounterEpochWrapWipesStaleTags) {
  util::MultiplicityCounter mc;
  const Trace first = workload::cyclic(4000, 500);  // 500 keys, 8 each
  ASSERT_EQ(mc.count(first).max, 8u);               // slots tagged epoch 1
  // Jump to the last epoch: the next call tags with 2^32 - 1, the one
  // after wraps to 0 and must wipe, or epoch-1 tags would read as live.
  util::MultiplicityCounterTestPeer::set_epoch(mc, 0xFFFFFFFEU);
  const Trace other = workload::strided(1000, 1, 1 << 20);
  const util::Multiplicity mid = mc.count(other);
  EXPECT_EQ(mid.max, 1u);
  EXPECT_EQ(mid.distinct, 1000u);
  const util::Multiplicity wrapped = mc.count(first);
  EXPECT_EQ(wrapped.max, 8u);
  EXPECT_EQ(wrapped.distinct, 500u);
  const util::Multiplicity after = mc.count(first);
  EXPECT_EQ(after.max, 8u);
  EXPECT_EQ(after.distinct, 500u);
}

TEST(AccessAnalysis, BanksMatchPerElementTallyForEveryMapping) {
  util::Xoshiro256 rng(11);
  std::vector<std::unique_ptr<mem::BankMapping>> mappings;
  mappings.push_back(std::make_unique<mem::InterleavedMapping>(96));
  mappings.push_back(std::make_unique<mem::BitReversalMapping>(64));
  mappings.push_back(
      std::make_unique<mem::HashedMapping>(100, mem::HashDegree::kCubic, rng));
  std::vector<Family> traces = every_family();
  traces.push_back({"empty", {}});
  traces.push_back({"odd_length", workload::uniform_random(2048 * 3 + 17,
                                                           1 << 30, 12)});
  for (const auto& m : mappings) {
    for (const Family& f : traces) {
      std::vector<std::uint64_t> want(m->num_banks(), 0);
      for (const auto a : f.trace) ++want[m->bank_of(a)];
      const mem::BankLoads bl = mem::analyze_banks(f.trace, *m);
      EXPECT_EQ(bl.load, want) << m->name() << " " << f.name;
      EXPECT_EQ(bl.total, f.trace.size());
      EXPECT_EQ(bl.max_load, *std::max_element(want.begin(), want.end()));
      EXPECT_EQ(bl.nonempty_banks,
                static_cast<std::uint64_t>(std::count_if(
                    want.begin(), want.end(),
                    [](std::uint64_t l) { return l != 0; })));
    }
  }
}

TEST(AccessAnalysis, EntropyIsBitEqualToMapFormula) {
  std::vector<Family> traces = every_family();
  traces.push_back({"empty", {}});
  traces.push_back({"one element", {7}});
  traces.push_back({"max key mixed", {~0ULL, 3, ~0ULL, 3, 3, 9}});
  for (const Family& f : traces) {
    const double want = map_entropy(f.trace);
    EXPECT_TRUE(same_bits(stats::shannon_entropy(f.trace), want)) << f.name;
    const stats::ValueProfile vp = stats::value_profile(f.trace);
    EXPECT_TRUE(same_bits(vp.entropy_bits, want)) << f.name;
    EXPECT_EQ(vp.max_multiplicity, sorted_reference(f.trace).max) << f.name;
  }
}

TEST(AccessAnalysis, EntropyFamilyRoundsMatchReferences) {
  for (const auto& t : workload::entropy_family(20000, 10, 24, 1 << 12, 13)) {
    EXPECT_TRUE(same_bits(t.entropy_bits, map_entropy(t.keys)))
        << "round " << t.round;
    EXPECT_EQ(t.max_contention, sorted_reference(t.keys).max)
        << "round " << t.round;
  }
}

TEST(AccessAnalysis, MultiplicitiesAndSpectrumMatchMapCounting) {
  for (const Family& f : every_family()) {
    std::map<std::uint64_t, std::uint64_t> mult;
    for (const auto x : f.trace) ++mult[x];
    std::map<std::uint64_t, std::uint64_t> spectrum;
    for (const auto& [value, count] : mult) {
      (void)value;
      ++spectrum[count];
    }
    EXPECT_EQ(stats::multiplicities(f.trace), mult) << f.name;
    EXPECT_EQ(stats::contention_spectrum(f.trace), spectrum) << f.name;
  }
}

/// The three mapping families over `banks` banks.
std::vector<std::shared_ptr<const mem::BankMapping>> every_mapping(
    std::uint64_t banks) {
  util::Xoshiro256 rng(17);
  return {std::make_shared<mem::InterleavedMapping>(banks),
          std::make_shared<mem::BitReversalMapping>(banks),
          std::make_shared<mem::HashedMapping>(banks, mem::HashDegree::kCubic,
                                               rng)};
}

/// Dead banks from cycle 0 (every request aimed at one fails over), slow
/// banks and NACKs with retries: the served bank load departs from the
/// mapping's route.
std::shared_ptr<const fault::FaultPlan> failover_plan(std::uint64_t banks) {
  fault::FaultConfig fc;
  fc.seed = 5;
  fc.slow_fraction = 0.25;
  fc.slow_multiplier = 4;
  fc.dead_fraction = 0.25;
  fc.drop_rate = 0.02;
  return std::make_shared<fault::FaultPlan>(fc, banks);
}

struct MachineVariant {
  std::string name;
  sim::MachineConfig cfg;
  bool faults = false;
};

/// test_machine (p = 4, 16 banks) plain with a binding window (heap
/// loop) and a wide one (dense / SoA paths), under a fault plan with
/// failover, with combining, and with the processor cache tier.
std::vector<MachineVariant> machine_variants() {
  const sim::MachineConfig base = sim::MachineConfig::test_machine();
  std::vector<MachineVariant> vs;
  vs.push_back({"plain", base});
  sim::MachineConfig wide = base;
  wide.slackness = 1 << 16;
  vs.push_back({"plain_wide_window", wide});
  vs.push_back({"faults_failover", base, true});
  sim::MachineConfig comb = wide;
  comb.combine_requests = true;
  vs.push_back({"combining", comb});
  sim::MachineConfig tier = base;
  tier.cache.capacity = 64;
  tier.cache.line_words = 8;
  tier.cache.assoc = 8;
  tier.cache.write = cache::WritePolicy::kBack;
  vs.push_back({"cache_tier", tier});
  return vs;
}

TEST(AccessAnalysis, MachineProfileMatchesProfileAccess) {
  const std::vector<Family> families = every_family();
  for (const MachineVariant& v : machine_variants()) {
    const core::DxBspParams m = core::DxBspParams::from_config(v.cfg);
    for (const auto& mapping : every_mapping(v.cfg.banks())) {
      for (const auto engine :
           {sim::Machine::Engine::kAuto, sim::Machine::Engine::kReference}) {
        sim::Machine machine(v.cfg, mapping);
        machine.set_engine(engine);
        if (v.faults) machine.inject(failover_plan(v.cfg.banks()));
        for (const Family& f : families) {
          const std::string what =
              v.name + " " + mapping->name() + " " +
              (engine == sim::Machine::Engine::kAuto ? "auto" : "reference") +
              " " + f.name;
          const sim::BulkResult res = machine.scatter_faulty(f.trace).bulk;
          const core::AccessProfile want =
              core::profile_access(f.trace, m, mapping.get());
          EXPECT_EQ(res.max_location_contention, want.max_contention) << what;
          EXPECT_EQ(res.distinct_locations, want.distinct) << what;
          EXPECT_EQ(res.max_requested_bank_load, want.h_bank_mapped) << what;
          const core::AccessProfile got = core::profile_bulk(res, m);
          EXPECT_EQ(got.n, want.n) << what;
          EXPECT_EQ(got.h_proc, want.h_proc) << what;
          EXPECT_EQ(got.h_bank_location, want.h_bank_location) << what;
        }
      }
    }
  }
}

TEST(AccessAnalysis, ScatterBanksProfileCountsTheBankIds) {
  const sim::MachineConfig cfg = sim::MachineConfig::test_machine();
  sim::Machine machine(cfg);
  const Trace banks = workload::uniform_random(5000, cfg.banks(), 21);
  const sim::BulkResult res = machine.scatter_banks(banks);
  const RefLocations ref = sorted_reference(banks);
  EXPECT_EQ(res.max_location_contention, ref.max);
  EXPECT_EQ(res.distinct_locations, ref.distinct);
  // The bank ids are their own route: the requested load is k.
  EXPECT_EQ(res.max_requested_bank_load, ref.max);
}

/// Runs `body` on a Vm and requires every irregular op's ledger entry to
/// equal a predict_scatter recount over the op's addresses, captured by
/// the trace hook (which fires just before the op's entry is added).
template <typename Body>
void expect_ledger_matches_recount(const MachineVariant& v,
                                   std::shared_ptr<const mem::BankMapping> mapping,
                                   Body&& body, const std::string& what) {
  algos::Vm vm(v.cfg, mapping);
  if (v.faults) vm.machine().inject(failover_plan(v.cfg.banks()));
  std::vector<std::pair<std::size_t, Trace>> ops;
  vm.set_trace_hook(
      [&](const std::string&, std::span<const std::uint64_t> addrs) {
        ops.emplace_back(vm.ledger().entries().size(),
                         Trace(addrs.begin(), addrs.end()));
      });
  body(vm);
  ASSERT_FALSE(ops.empty()) << what;
  const core::DxBspParams& m = vm.params();
  for (const auto& [at, addrs] : ops) {
    ASSERT_LT(at, vm.ledger().entries().size()) << what;
    const core::LedgerEntry& e = vm.ledger().entries()[at];
    const core::Prediction pred =
        core::predict_scatter(addrs, m, &vm.machine().mapping());
    // These algorithms charge the default two auxiliary streams per op.
    const auto aux = static_cast<std::uint64_t>(std::ceil(
        2.0 * static_cast<double>(util::ceil_div(addrs.size(), m.p)) *
        static_cast<double>(m.g)));
    const std::string where = what + " " + e.label;
    EXPECT_EQ(e.n, addrs.size()) << where;
    EXPECT_EQ(e.max_contention, pred.profile.max_contention) << where;
    EXPECT_EQ(e.pred_dxbsp, std::max(pred.dxbsp_mapped, aux + 2 * m.L))
        << where;
    EXPECT_EQ(e.pred_bsp, std::max(pred.bsp, aux + 2 * m.L)) << where;
  }
}

TEST(AccessAnalysis, VmLedgerMatchesPredictScatterRecount) {
  const Trace keys = workload::uniform_random(4096, 1ULL << 32, 31);
  const workload::CsrMatrix csr = workload::random_csr(1024, 1024, 6, 32);
  const std::vector<double> x(1024, 0.5);
  const workload::Graph graph = workload::random_gnm(2048, 4096, 33);
  for (const MachineVariant& v : machine_variants()) {
    for (const auto& mapping : every_mapping(v.cfg.banks())) {
      const std::string what = v.name + " " + mapping->name();
      expect_ledger_matches_recount(
          v, mapping, [&](algos::Vm& vm) { (void)algos::radix_sort(vm, keys, 32); },
          what + " radix_sort");
      expect_ledger_matches_recount(
          v, mapping, [&](algos::Vm& vm) { (void)algos::spmv(vm, csr, x); },
          what + " spmv");
      expect_ledger_matches_recount(
          v, mapping,
          [&](algos::Vm& vm) { (void)algos::connected_components(vm, graph); },
          what + " connected_components");
      expect_ledger_matches_recount(
          v, mapping,
          [&](algos::Vm& vm) {
            (void)algos::random_permutation_qrqw(vm, 4096, 34);
          },
          what + " random_permutation");
    }
  }
}

}  // namespace
}  // namespace dxbsp
