#pragma once
// Bit-identity assertions shared by the engine differential suites
// (engine_equivalence_test, engine_select_test, attribution_test).

#include <gtest/gtest.h>

#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"

namespace dxbsp::engine_test {

inline void expect_same_bulk(const sim::BulkResult& a,
                             const sim::BulkResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.max_bank_load, b.max_bank_load);
  EXPECT_EQ(a.max_proc_requests, b.max_proc_requests);
  EXPECT_EQ(a.last_issue, b.last_issue);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.port_conflicts, b.port_conflicts);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.max_proc_miss, b.max_proc_miss);
  EXPECT_EQ(a.combined, b.combined);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.nacks, b.nacks);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.max_location_contention, b.max_location_contention);
  EXPECT_DOUBLE_EQ(a.bank_utilization, b.bank_utilization);
  // Attribution is part of the bit-identical contract: same critical
  // event, same decomposition, same bank-load distribution.
  EXPECT_EQ(a.breakdown, b.breakdown);
  EXPECT_EQ(a.bank_sketch, b.bank_sketch);
}

inline void expect_same_timing(const sim::Machine::RequestTiming& a,
                               const sim::Machine::RequestTiming& b) {
  EXPECT_EQ(a.issue, b.issue);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.bank, b.bank);
}

inline void expect_same_trace(const obs::TraceRing& a,
                              const obs::TraceRing& b) {
  const auto ea = a.drain();
  const auto eb = b.drain();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].ts, eb[i].ts) << "event " << i;
    EXPECT_EQ(ea[i].dur, eb[i].dur) << "event " << i;
    EXPECT_EQ(ea[i].a, eb[i].a) << "event " << i;
    EXPECT_EQ(ea[i].b, eb[i].b) << "event " << i;
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
  }
}

/// Pins `m` to the heap-scheduled loop: kAuto with the selector's raw
/// choice forced to kHeap, which is exact for every op, so even dense-
/// and SoA-eligible workloads exercise the scheduler.
inline void force_heap(sim::Machine& m) {
  m.set_engine(sim::Machine::Engine::kAuto);
  m.selector().force(obs::EngineChoice::kHeap);
}

}  // namespace dxbsp::engine_test
