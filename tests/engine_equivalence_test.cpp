// Differential tests for the event engines: the binary-heap scheduled
// loop (forced for every op) AND the adaptive selector (kAuto, the
// default) must produce BIT-IDENTICAL results to the reference
// priority_queue loop — BulkResult field for field, RequestTiming slot
// for slot, trace event for event — across machine features,
// distributions, fault scenarios and slackness regimes
// (docs/performance.md). SoA-kernel-specific and selector-log scenarios
// live in tests/engine_select_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/placement.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

#include "engine_test_util.hpp"

namespace dxbsp {
namespace {

using namespace engine_test;

/// Runs the same workload on all three engine modes of
/// otherwise-identical machines and asserts byte-identical outputs
/// (kAuto may pick a different path per superstep; it must never show).
/// Each engine runs the workload twice back-to-back so scratch-arena
/// reuse (second bulk op hits warm buffers) is covered by the same
/// assertions. The attached tracer keeps kAuto off the SoA kernel here;
/// tests/engine_select_test.cpp covers the tracer-free SoA path.
void check_equivalent(sim::MachineConfig cfg,
                      const std::vector<std::uint64_t>& addrs,
                      std::shared_ptr<const fault::FaultPlan> plan = nullptr,
                      bool with_timing = true) {
  sim::Machine heap(cfg);
  sim::Machine ref(cfg);
  sim::Machine aut(cfg);
  force_heap(heap);
  ref.set_engine(sim::Machine::Engine::kReference);
  aut.set_engine(sim::Machine::Engine::kAuto);
  if (plan) {
    heap.inject(plan);
    ref.inject(plan);
    aut.inject(plan);
  }

  for (int round = 0; round < 2; ++round) {
    obs::TraceRing ring_heap(1 << 18);
    obs::TraceRing ring_ref(1 << 18);
    obs::TraceRing ring_aut(1 << 18);
    heap.set_tracer(&ring_heap);
    ref.set_tracer(&ring_ref);
    aut.set_tracer(&ring_aut);

    const auto out_heap = heap.scatter_faulty(addrs);
    const auto out_ref = ref.scatter_faulty(addrs);
    const auto out_aut = aut.scatter_faulty(addrs);
    expect_same_bulk(out_heap.bulk, out_ref.bulk);
    expect_same_bulk(out_aut.bulk, out_ref.bulk);
    ASSERT_EQ(out_heap.degraded.has_value(), out_ref.degraded.has_value());
    ASSERT_EQ(out_aut.degraded.has_value(), out_ref.degraded.has_value());
    if (out_heap.degraded) {
      EXPECT_EQ(out_heap.degraded->failed_requests,
                out_ref.degraded->failed_requests);
      EXPECT_EQ(out_heap.degraded->first_failed_element,
                out_ref.degraded->first_failed_element);
      EXPECT_EQ(out_heap.degraded->attempts, out_ref.degraded->attempts);
      EXPECT_EQ(out_heap.degraded->reason, out_ref.degraded->reason);
      EXPECT_EQ(out_aut.degraded->failed_requests,
                out_ref.degraded->failed_requests);
      EXPECT_EQ(out_aut.degraded->first_failed_element,
                out_ref.degraded->first_failed_element);
      EXPECT_EQ(out_aut.degraded->attempts, out_ref.degraded->attempts);
      EXPECT_EQ(out_aut.degraded->reason, out_ref.degraded->reason);
    }
    expect_same_trace(ring_heap, ring_ref);
    expect_same_trace(ring_aut, ring_ref);

    if (with_timing && !out_heap.degraded) {
      sim::Machine::RequestTiming t_heap, t_ref, t_aut;
      const auto d_heap = heap.scatter_detailed(addrs, t_heap);
      const auto d_ref = ref.scatter_detailed(addrs, t_ref);
      const auto d_aut = aut.scatter_detailed(addrs, t_aut);
      expect_same_bulk(d_heap, d_ref);
      expect_same_bulk(d_aut, d_ref);
      expect_same_timing(t_heap, t_ref);
      expect_same_timing(t_aut, t_ref);
    } else if (with_timing) {
      // Degraded runs throw from scatter_detailed but must still leave
      // identical timing records (kUnserved in the failed slots).
      sim::Machine::RequestTiming t_heap, t_ref, t_aut;
      EXPECT_THROW((void)heap.scatter_detailed(addrs, t_heap),
                   fault::DegradedError);
      EXPECT_THROW((void)ref.scatter_detailed(addrs, t_ref),
                   fault::DegradedError);
      EXPECT_THROW((void)aut.scatter_detailed(addrs, t_aut),
                   fault::DegradedError);
      expect_same_timing(t_heap, t_ref);
      expect_same_timing(t_aut, t_ref);
    }
    heap.set_tracer(nullptr);
    ref.set_tracer(nullptr);
    aut.set_tracer(nullptr);
  }
}

sim::MachineConfig base_config(sim::Distribution dist) {
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  cfg.distribution = dist;
  return cfg;
}

std::shared_ptr<const fault::FaultPlan> drop_plan(std::uint64_t banks,
                                                  double drop,
                                                  std::uint64_t max_retries) {
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.drop_rate = drop;
  fc.retry.max_retries = max_retries;
  fc.retry.backoff_base = 16;
  fc.retry.backoff_cap = 8192;  // retries land far beyond the issue front
  fc.retry.jitter = 8;
  return std::make_shared<fault::FaultPlan>(fc, banks);
}

std::shared_ptr<const fault::FaultPlan> chaos_plan(std::uint64_t banks) {
  fault::FaultConfig fc;
  fc.seed = 5;
  fc.slow_fraction = 0.25;
  fc.slow_multiplier = 4;
  fc.dead_fraction = 0.125;
  fc.dead_onset = 200;
  fc.drop_rate = 0.02;
  return std::make_shared<fault::FaultPlan>(fc, banks);
}

TEST(EngineEquivalence, UniformRandomBothDistributions) {
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  check_equivalent(base_config(sim::Distribution::kBlock), addrs);
  check_equivalent(base_config(sim::Distribution::kCyclic), addrs);
}

TEST(EngineEquivalence, UnevenTailRequestCount) {
  // n not divisible by p: processors own unequal counts, so the dense
  // fast path's per-processor bounds and the ring offsets differ.
  const auto addrs = workload::uniform_random(10007, 1 << 20, 7);
  check_equivalent(base_config(sim::Distribution::kBlock), addrs);
  check_equivalent(base_config(sim::Distribution::kCyclic), addrs);
}

TEST(EngineEquivalence, HotSpotTrafficTightSlackness) {
  // A hot location plus S smaller than the per-processor count: the
  // completion-window gate binds, forcing the general scheduled path
  // (stalls, non-monotone heads) instead of the dense one.
  auto addrs = workload::k_hot(8000, 2000, 1 << 20, 3);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    auto cfg = base_config(dist);
    cfg.slackness = 16;
    check_equivalent(cfg, addrs);
  }
}

TEST(EngineEquivalence, CombiningMachine) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.combine_requests = true;
  check_equivalent(cfg, workload::k_hot(6000, 3000, 1 << 16, 9));
}

TEST(EngineEquivalence, CachingMachine) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.bank_cache_lines = 4;
  cfg.cache_line_words = 8;
  cfg.cached_delay = 1;
  check_equivalent(cfg, workload::strided(8000, 1, 0));
}

TEST(EngineEquivalence, CacheTierLruWriteBack) {
  // Processor-cache tier (docs/cache.md): LRU write-back dirties lines
  // and fires dirty-eviction writebacks into the bank pipeline — both
  // engines must agree on every hit, miss, victim and trace event.
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 64;
  cfg.cache.line_words = 8;
  cfg.cache.assoc = 8;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(8000, 2000, 1 << 14, 3));
}

TEST(EngineEquivalence, CacheTierFifoWriteThroughDirectMapped) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.cache.capacity = 32;
  cfg.cache.line_words = 4;
  cfg.cache.assoc = 1;  // direct-mapped: conflict misses galore
  cfg.cache.policy = cache::Policy::kFifo;
  cfg.cache.write = cache::WritePolicy::kThrough;
  check_equivalent(cfg, workload::strided(8000, 1, 0));
}

TEST(EngineEquivalence, CacheTierFullyAssociative) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 16;
  cfg.cache.assoc = 0;  // fully associative
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 12, 41));
}

TEST(EngineEquivalence, CacheTierScratchpad) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 8;
  cfg.cache.line_words = 8;
  cfg.cache.mode = cache::Mode::kScratchpad;

  const auto addrs = workload::k_hot(6000, 3000, 1 << 13, 9);
  const auto pinned = cache::hot_lines(addrs, cfg.cache.line_words, 8);
  sim::Machine heap(cfg);
  sim::Machine ref(cfg);
  force_heap(heap);
  ref.set_engine(sim::Machine::Engine::kReference);
  heap.pin_scratchpad(pinned);
  ref.pin_scratchpad(pinned);
  for (int round = 0; round < 2; ++round)
    expect_same_bulk(heap.scatter(addrs), ref.scatter(addrs));
}

TEST(EngineEquivalence, CacheTierWithFaults) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 32;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(6000, 1500, 1 << 14, 43),
                   chaos_plan(cfg.banks()));
}

TEST(EngineEquivalence, CacheTierTightSlackness) {
  // Window gate binding + cache hits completing ahead of misses: the
  // general scheduled path with the tier in front.
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.slackness = 16;
  cfg.cache.capacity = 64;
  cfg.cache.write = cache::WritePolicy::kBack;
  check_equivalent(cfg, workload::k_hot(8000, 2000, 1 << 14, 47));
}

TEST(EngineEquivalence, MultiPortBanks) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.bank_ports = 2;
  check_equivalent(cfg, workload::uniform_random(8000, 1 << 18, 13));
}

TEST(EngineEquivalence, SectionedNetwork) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.network_sections = 4;
  cfg.section_period = 2;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 17));
}

TEST(EngineEquivalence, ButterflyNetwork) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  cfg.butterfly_network = true;
  cfg.link_period = 1;
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 19));
}

TEST(EngineEquivalence, FaultyDropsWithRetries) {
  // Recoverable drops: retry backoffs land far in the future, mixing
  // far-off retries with the per-processor issue events in the heap.
  auto cfg = base_config(sim::Distribution::kBlock);
  check_equivalent(cfg, workload::uniform_random(8000, 1 << 18, 23),
                   drop_plan(cfg.banks(), 0.05, 8));
}

TEST(EngineEquivalence, FaultyRetryTiesFollowTheEventOrder) {
  // A flat one-cycle backoff with no jitter and heavy drops: a
  // processor's retries of different attempts and elements, and its
  // next fresh issue, keep landing on the same cycle, so the pop order
  // rests on the (proc, attempt, elem) tiebreaks.
  auto cfg = base_config(sim::Distribution::kCyclic);
  fault::FaultConfig fc;
  fc.seed = 13;
  fc.drop_rate = 0.5;
  fc.retry.max_retries = 8;
  fc.retry.backoff_base = 1;
  fc.retry.backoff_cap = 1;
  fc.retry.jitter = 0;
  check_equivalent(cfg, workload::uniform_random(4000, 1 << 18, 37),
                   std::make_shared<fault::FaultPlan>(fc, cfg.banks()));
}

TEST(EngineEquivalence, FaultyExhaustedBudgetDegrades) {
  // Unrecoverable drops (budget 0): the degraded epilogue, failed-count
  // bookkeeping and kUnserved timing slots must match exactly.
  auto cfg = base_config(sim::Distribution::kCyclic);
  check_equivalent(cfg, workload::uniform_random(4000, 1 << 18, 29),
                   drop_plan(cfg.banks(), 0.1, 0));
}

TEST(EngineEquivalence, FaultyChaosSlowDeadAndDrops) {
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.slackness = 64;  // window gate + faults together
  check_equivalent(cfg, workload::uniform_random(6000, 1 << 18, 31),
                   chaos_plan(cfg.banks()));
}

TEST(EngineEquivalence, ScatterBanksPath) {
  // Bank ids supplied directly (mapping bypassed, serve() not
  // serve_addr()); also covers the batched-route engine's id validation.
  auto cfg = base_config(sim::Distribution::kBlock);
  std::vector<std::uint64_t> banks(5000);
  for (std::size_t i = 0; i < banks.size(); ++i)
    banks[i] = (i * 7 + i / 13) % cfg.banks();

  sim::Machine heap(cfg);
  sim::Machine ref(cfg);
  force_heap(heap);
  ref.set_engine(sim::Machine::Engine::kReference);
  expect_same_bulk(heap.scatter_banks(banks), ref.scatter_banks(banks));

  banks[123] = cfg.banks();  // out of range: both engines must reject
  EXPECT_THROW((void)heap.scatter_banks(banks), dxbsp::Error);
  EXPECT_THROW((void)ref.scatter_banks(banks), dxbsp::Error);
}

TEST(EngineEquivalence, GapAndLatencyVariants) {
  for (std::uint64_t g : {1ULL, 3ULL}) {
    for (std::uint64_t L : {0ULL, 8ULL, 100ULL}) {
      auto cfg = base_config(sim::Distribution::kBlock);
      cfg.gap = g;
      cfg.latency = L;
      check_equivalent(cfg, workload::uniform_random(4000, 1 << 18, 37),
                       nullptr, /*with_timing=*/false);
    }
  }
}

TEST(EngineEquivalence, DefaultEngineIsAuto) {
  sim::Machine m(sim::MachineConfig::test_machine());
  EXPECT_EQ(m.engine(), sim::Machine::Engine::kAuto);
}

}  // namespace
}  // namespace dxbsp
