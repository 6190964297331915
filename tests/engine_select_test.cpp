// Tests for the adaptive execution layer (docs/performance.md
// §selector): the EngineSelector's dispatch policy, the SoA batched
// kernel's bit-identity with the reference engine (the tracer-free
// scenarios engine_equivalence_test.cpp cannot reach, since attaching a
// tracer disqualifies the SoA path), the forced-misprediction fallback,
// and the determinism of the selector report section across thread
// interleavings.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/report.hpp"
#include "obs/selector.hpp"
#include "sim/engine_select.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

#include "engine_test_util.hpp"

namespace dxbsp {
namespace {

using namespace engine_test;

sim::MachineConfig base_config(sim::Distribution dist) {
  auto cfg = sim::MachineConfig::test_machine();  // p=4, d=4, L=8, x=4
  cfg.distribution = dist;
  // test_machine pins S=64 to make the window gate testable; the SoA
  // and dense paths need the window to never bind, so restore the
  // paper's S=64K for the selector scenarios.
  cfg.slackness = 64 * 1024;
  return cfg;
}

/// Runs `addrs` through kAuto and kReference on tracer-free machines
/// (so the SoA kernel is reachable) and asserts identical telemetry.
/// Returns the selector row kAuto recorded, for policy assertions.
obs::SelectorRow check_auto_vs_reference(
    const sim::MachineConfig& cfg, const std::vector<std::uint64_t>& addrs,
    std::shared_ptr<const fault::FaultPlan> plan = nullptr) {
  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  aut.set_engine(sim::Machine::Engine::kAuto);
  ref.set_engine(sim::Machine::Engine::kReference);
  aut.set_selector(&log);
  if (plan) {
    aut.inject(plan);
    ref.inject(plan);
  }
  // Two rounds: the second hits warm scratch-arena planes and a selector
  // with memory (last bank load, last binding term).
  for (int round = 0; round < 2; ++round) {
    const auto out_aut = aut.scatter_faulty(addrs);
    const auto out_ref = ref.scatter_faulty(addrs);
    expect_same_bulk(out_aut.bulk, out_ref.bulk);
    EXPECT_EQ(out_aut.degraded.has_value(), out_ref.degraded.has_value());
  }
  const auto rows = log.snapshot().rows;
  EXPECT_EQ(rows.size(), 2u);
  return rows.empty() ? obs::SelectorRow{} : rows.back();
}

TEST(EngineSelect, SoaPathMatchesReferenceBothDistributions) {
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    const auto row = check_auto_vs_reference(base_config(dist), addrs);
    EXPECT_TRUE(row.eligible_soa);
    EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
    EXPECT_FALSE(row.fallback);
    EXPECT_FALSE(row.forced);
  }
}

TEST(EngineSelect, SoaPathUnevenTailRequestCount) {
  // n not divisible by p: the last processor owns fewer elements, so the
  // SoA plane fill's ragged-tail guards are what is under test.
  const auto addrs = workload::uniform_random(10007, 1 << 20, 7);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    const auto row = check_auto_vs_reference(base_config(dist), addrs);
    EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
  }
}

TEST(EngineSelect, SoaBucketedKernelLargeBankArray) {
  // More banks than the fused-chain cutoff (32Ki): the SoA kernel must
  // switch to its bucketed counting-sort form (per-bank serve_run over
  // contiguous arrival buckets) and still match the reference engine,
  // including the critical-request latch's pop-order tie-break.
  const auto addrs = workload::uniform_random(30011, 1 << 22, 13);
  for (auto dist : {sim::Distribution::kBlock, sim::Distribution::kCyclic}) {
    auto cfg = base_config(dist);
    cfg.expansion = 16384;  // 4 procs -> 65536 banks
    const auto row = check_auto_vs_reference(cfg, addrs);
    EXPECT_TRUE(row.eligible_soa);
    EXPECT_EQ(row.choice, obs::EngineChoice::kSoA);
  }
}

TEST(EngineSelect, SoaPathScatterBanks) {
  // Bank ids supplied directly: the kernel's serve() (not serve_addr())
  // leg, including its id validation.
  auto cfg = base_config(sim::Distribution::kBlock);
  std::vector<std::uint64_t> banks(20000);
  for (std::size_t i = 0; i < banks.size(); ++i)
    banks[i] = (i * 7 + i / 13) % cfg.banks();

  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  aut.set_engine(sim::Machine::Engine::kAuto);
  ref.set_engine(sim::Machine::Engine::kReference);
  expect_same_bulk(aut.scatter_banks(banks), ref.scatter_banks(banks));

  banks[123] = cfg.banks();  // out of range: both engines must reject
  EXPECT_THROW((void)aut.scatter_banks(banks), dxbsp::Error);
  EXPECT_THROW((void)ref.scatter_banks(banks), dxbsp::Error);
}

TEST(EngineSelect, SoaPerElementLegCombiningCachedAndMultiPort) {
  // Machines whose banks are not batchable (combining, bank cache,
  // multi-port): the SoA kernel must take its per-element serve leg (or
  // the selector must avoid SoA) and still match the reference exactly.
  const auto hot = workload::k_hot(12000, 3000, 1 << 16, 9);

  auto combining = base_config(sim::Distribution::kBlock);
  combining.combine_requests = true;
  check_auto_vs_reference(combining, hot);

  auto cached = base_config(sim::Distribution::kBlock);
  cached.bank_cache_lines = 4;
  cached.cache_line_words = 8;
  cached.cached_delay = 1;
  check_auto_vs_reference(cached, workload::strided(12000, 1, 0));

  auto ported = base_config(sim::Distribution::kCyclic);
  ported.bank_ports = 2;
  check_auto_vs_reference(ported, workload::uniform_random(12000, 1 << 18,
                                                           13));
}

TEST(EngineSelect, FaultyDropRetryMatchesReference) {
  // A fault plan disqualifies the dense and SoA paths; kAuto must land
  // on a scheduled path and still match the reference bit for bit.
  auto cfg = base_config(sim::Distribution::kBlock);
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.drop_rate = 0.05;
  fc.retry.max_retries = 8;
  fc.retry.backoff_base = 16;
  fc.retry.backoff_cap = 8192;
  fc.retry.jitter = 8;
  const auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
  const auto row = check_auto_vs_reference(
      cfg, workload::uniform_random(8000, 1 << 18, 23), plan);
  EXPECT_FALSE(row.eligible_soa);
  EXPECT_FALSE(row.eligible_dense);
  EXPECT_NE(row.choice, obs::EngineChoice::kSoA);
  EXPECT_NE(row.choice, obs::EngineChoice::kDense);
}

TEST(EngineSelect, ScheduledShapesAlwaysPickHeap) {
  // Large-window shapes (p·window > 4096) still hold only about p live
  // events — one pending issue per processor plus retries — so the heap
  // is the scheduler for every op that is not dense-eligible.
  //
  // j90-shaped, window binding: S = 1024 < h_proc = 2048, p·window =
  // 8192.
  auto j90 = sim::MachineConfig::cray_j90();
  j90.slackness = 1024;
  const auto windowed = check_auto_vs_reference(
      j90, workload::k_hot(8 * 2048, 2048, 1 << 20, 5));
  EXPECT_FALSE(windowed.eligible_dense);
  EXPECT_EQ(windowed.choice, obs::EngineChoice::kHeap);
  EXPECT_FALSE(windowed.fallback);
  EXPECT_FALSE(windowed.forced);

  // Faulty: p = 4, window = h_proc = 2000, p·window = 8000.
  auto cfg = base_config(sim::Distribution::kCyclic);
  fault::FaultConfig fc;
  fc.seed = 19;
  fc.drop_rate = 0.05;
  fc.retry.max_retries = 8;
  fc.retry.backoff_base = 16;
  fc.retry.backoff_cap = 8192;
  const auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());
  const auto faulty = check_auto_vs_reference(
      cfg, workload::uniform_random(8000, 1 << 18, 31), plan);
  EXPECT_EQ(faulty.window * cfg.processors, 8000u);
  EXPECT_EQ(faulty.choice, obs::EngineChoice::kHeap);
  EXPECT_FALSE(faulty.fallback);
  EXPECT_FALSE(faulty.forced);
}

TEST(EngineSelect, AttributionIdentityHoldsOnSoaPath) {
  // The cost decomposition must sum exactly to the makespan on the SoA
  // kernel's single-latch attribution, same as on the event engines.
  auto cfg = base_config(sim::Distribution::kCyclic);
  sim::Machine aut(cfg);
  aut.set_engine(sim::Machine::Engine::kAuto);
  obs::SelectorLog log;
  aut.set_selector(&log);
  const auto out = aut.scatter(workload::k_hot(16000, 4000, 1 << 20, 3));
  ASSERT_EQ(log.snapshot().rows.at(0).choice, obs::EngineChoice::kSoA);
  EXPECT_EQ(out.breakdown.total(), out.cycles);
  EXPECT_GT(out.cycles, 0u);
}

TEST(EngineSelect, SelectorRowRecordsPredictionAndMeasurement) {
  auto cfg = base_config(sim::Distribution::kBlock);
  obs::SelectorLog log;
  sim::Machine m(cfg);
  m.set_selector(&log, /*track=*/7);
  const auto addrs = workload::uniform_random(20000, 1 << 20, 42);
  const auto out0 = m.scatter(addrs);
  const auto out1 = m.scatter(addrs);
  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].track, 7u);
  EXPECT_EQ(rows[0].step, 0u);
  EXPECT_EQ(rows[1].step, 1u);
  EXPECT_EQ(rows[0].n, addrs.size());
  EXPECT_EQ(rows[0].measured, out0.cycles);
  EXPECT_EQ(rows[1].measured, out1.cycles);
  EXPECT_GT(rows[0].predicted, 0u);
  // Step 0 predicts from the static h_bank lower bound; step 1 has seen
  // step 0's actual max bank load, so its estimate can only be tighter.
  EXPECT_GE(rows[1].h_bank_est, rows[0].h_bank_est);
}

TEST(EngineSelect, ForcedMispredictionFallsBackToDense) {
  // force(kSoA) on a machine with a processor-cache tier: the SoA
  // kernel is ineligible (the tier reorders service), so the machine
  // must demote the forced choice, flag the row as a fallback, and
  // still match the reference exactly.
  auto cfg = base_config(sim::Distribution::kBlock);
  cfg.cache.capacity = 64;
  cfg.cache.line_words = 8;

  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  aut.set_engine(sim::Machine::Engine::kAuto);
  ref.set_engine(sim::Machine::Engine::kReference);
  aut.set_selector(&log);
  aut.selector().force(obs::EngineChoice::kSoA);

  const auto addrs = workload::k_hot(8000, 2000, 1 << 14, 3);
  expect_same_bulk(aut.scatter(addrs), ref.scatter(addrs));

  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].forced);
  EXPECT_TRUE(rows[0].fallback);
  EXPECT_FALSE(rows[0].eligible_soa);
  EXPECT_TRUE(rows[0].eligible_dense);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kDense);
}

TEST(EngineSelect, ForcedDenseUnderFaultsFallsBackToHeap) {
  auto cfg = base_config(sim::Distribution::kCyclic);
  fault::FaultConfig fc;
  fc.seed = 5;
  fc.drop_rate = 0.02;
  fc.retry.max_retries = 8;
  const auto plan = std::make_shared<fault::FaultPlan>(fc, cfg.banks());

  obs::SelectorLog log;
  sim::Machine aut(cfg);
  sim::Machine ref(cfg);
  aut.set_engine(sim::Machine::Engine::kAuto);
  ref.set_engine(sim::Machine::Engine::kReference);
  aut.set_selector(&log);
  aut.inject(plan);
  ref.inject(plan);
  aut.selector().force(obs::EngineChoice::kDense);

  const auto addrs = workload::uniform_random(6000, 1 << 18, 29);
  const auto out_aut = aut.scatter_faulty(addrs);
  const auto out_ref = ref.scatter_faulty(addrs);
  expect_same_bulk(out_aut.bulk, out_ref.bulk);

  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].fallback);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kHeap);
}

TEST(EngineSelect, PinnedEngineRowsAreMarkedForced) {
  obs::SelectorLog log;
  sim::Machine m(base_config(sim::Distribution::kBlock));
  m.set_engine(sim::Machine::Engine::kReference);
  m.set_selector(&log);
  (void)m.scatter(workload::uniform_random(4000, 1 << 18, 17));
  const auto rows = log.snapshot().rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].forced);
  EXPECT_FALSE(rows[0].fallback);
  EXPECT_EQ(rows[0].choice, obs::EngineChoice::kReference);
}

/// Renders just the report for a selector log (no tracer/attribution/
/// drift), for byte-comparison.
std::string render_selector_report(const obs::SelectorLog& log) {
  obs::RunInfo info;
  info.bench = "selector determinism";
  std::ostringstream os;
  obs::write_report_json(os, info, obs::MetricsRegistry::global(), nullptr,
                         nullptr, nullptr, &log);
  return os.str();
}

TEST(EngineSelect, SelectorSectionByteIdenticalAcrossInterleavings) {
  // Four tracks' rows recorded from four concurrent threads must render
  // the same selector section as the same tracks run serially in
  // reverse order: the snapshot's total-order sort is what the report's
  // determinism contract rests on.
  const auto run_track = [](obs::SelectorLog& log, std::uint64_t track) {
    sim::Machine m(sim::MachineConfig::test_machine());
    m.set_selector(&log, track);
    const auto addrs =
        workload::uniform_random(4000 + 1000 * track, 1 << 18, track);
    (void)m.scatter(addrs);
    (void)m.scatter(addrs);
  };

  obs::SelectorLog parallel_log;
  {
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 4; ++t)
      threads.emplace_back([&, t] { run_track(parallel_log, t); });
    for (auto& th : threads) th.join();
  }

  obs::SelectorLog serial_log;
  for (std::uint64_t t = 4; t-- > 0;) run_track(serial_log, t);

  EXPECT_EQ(render_selector_report(parallel_log),
            render_selector_report(serial_log));
  EXPECT_EQ(parallel_log.snapshot().rows.size(), 8u);
  EXPECT_EQ(parallel_log.snapshot().rows, serial_log.snapshot().rows);
}

TEST(EngineSelect, ReportSectionShapeAndOmissionWhenEmpty) {
  obs::SelectorLog log;
  const std::string bare = render_selector_report(log);
  EXPECT_EQ(bare.find("\"selector\""), std::string::npos);

  sim::Machine m(base_config(sim::Distribution::kBlock));
  m.set_selector(&log, 3);
  (void)m.scatter(workload::uniform_random(20000, 1 << 20, 42));
  const std::string json = render_selector_report(log);
  EXPECT_NE(json.find("\"selector\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"choice\": \"soa\""), std::string::npos);
  EXPECT_NE(json.find("\"track\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"predicted_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_cycles\""), std::string::npos);
  // Merging a snapshot (the coordinator's path) reproduces the rows.
  obs::SelectorLog merged;
  merged.merge(log.snapshot());
  EXPECT_EQ(render_selector_report(merged), json);
}

}  // namespace
}  // namespace dxbsp
