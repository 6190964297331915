#pragma once
// Engine-selection log: one row per superstep recording the features the
// adaptive execution layer (sim/engine_select.hpp) saw before dispatch,
// the strategy it chose, and the predicted vs measured makespan
// (docs/performance.md §selector).
//
// Rows are identified by (track, step) — the same identity drift samples
// use — and snapshot() orders them by a total comparator over the entire
// row, so the "selector" report section is byte-identical across thread
// counts and across serial vs fleet execution (rows merge as a multiset,
// never by arrival order). Everything recorded is a pure function of the
// workload: Stability::kDeterministic by construction.

#include <cstdint>
#include <mutex>
#include <vector>

namespace dxbsp::obs {

/// Execution strategy a bulk operation was dispatched to. kReference
/// mirrors the pinnable sim::Machine::Engine value; the rest are what
/// kAuto dispatches to. The values are wire codes (svc payloads, flight
/// records), contiguous from 0.
enum class EngineChoice : std::uint8_t {
  kReference,  ///< original priority_queue loop (oracle)
  kDense,      ///< dense fast path (window cannot bind, no faults)
  kHeap,       ///< binary-heap scheduler over the batched-route state
  kSoA,        ///< structure-of-arrays batched bank-service kernel
};

inline constexpr std::size_t kEngineChoices = 4;
[[nodiscard]] const char* engine_choice_name(EngineChoice c) noexcept;

/// Sentinel for "no previous superstep": the binding-term feature is the
/// cost-term index (obs::cost_term_name) that dominated the last
/// breakdown on this machine.
inline constexpr std::uint8_t kNoBindingTerm = 0xFF;

/// One superstep's selection record.
struct SelectorRow {
  std::uint64_t track = 0;  ///< sweep-point id (bench::Obs::attach)
  std::uint64_t step = 0;   ///< superstep sequence within the track
  std::uint64_t n = 0;      ///< requests in the bulk op
  std::uint64_t h_proc = 0;           ///< ceil(n/p): max per-proc requests
  std::uint64_t window = 0;           ///< min(slackness, h_proc)
  std::uint64_t h_bank_est = 0;       ///< pre-dispatch bank-load estimate
  std::uint64_t plan_fingerprint = 0; ///< fault plan id (0 = healthy)
  std::uint64_t predicted = 0;        ///< model cycles (engine_select)
  std::uint64_t measured = 0;         ///< measured makespan cycles
  std::uint8_t last_binding = kNoBindingTerm;  ///< prior binding term
  bool eligible_dense = false;
  bool eligible_soa = false;
  bool forced = false;    ///< engine pinned (--engine) or test-forced
  bool fallback = false;  ///< raw choice was ineligible; demoted safely
  EngineChoice choice = EngineChoice::kHeap;  ///< what actually ran

  friend bool operator==(const SelectorRow&, const SelectorRow&) = default;
};

/// Total order over entire rows (not just the (track, step) key), so a
/// multiset of rows sorts identically regardless of insertion order —
/// the property that keeps reports byte-identical across --threads.
[[nodiscard]] bool selector_row_less(const SelectorRow& a,
                                     const SelectorRow& b) noexcept;

/// Run-level collection of selection rows, mirroring
/// AttributionAggregate: record() from any sweep thread, snapshot() for
/// the report writers, merge() for fleet coordinators folding per-shard
/// snapshots (rows concatenate; ordering is re-established at snapshot).
class SelectorLog {
 public:
  struct Snapshot {
    std::vector<SelectorRow> rows;  ///< sorted by selector_row_less
  };

  void record(const SelectorRow& row) {
    const std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(row);
  }

  [[nodiscard]] Snapshot snapshot() const;

  void merge(const Snapshot& o) {
    const std::lock_guard<std::mutex> lock(mu_);
    rows_.insert(rows_.end(), o.rows.begin(), o.rows.end());
  }

 private:
  mutable std::mutex mu_;
  std::vector<SelectorRow> rows_;
};

}  // namespace dxbsp::obs
