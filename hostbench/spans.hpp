#pragma once
// Host-time spans recorded by the benchmark around every call it makes
// into a layer of the library. Spans live in memory and are reduced at
// exit; nothing is written while a pass runs.
//
// A span is named "<layer>.<what>" (core.predict, sim.scatter, ...).
// Spans whose layer is "bench" are the benchmark's own glue (the pass
// root, a sweep point); their self time is the part of the traced wall
// time that no layer span covers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal or name owned by the workload
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t op = 0;      ///< pass number: spans of one pass share it
};

/// Single-threaded span log: open/close nest like a call stack.
class SpanLog {
 public:
  std::int32_t open(const char* name, std::uint32_t op) {
    spans_.push_back(Span{name, now_ns(), 0, current_, op});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    current_ = spans_[static_cast<std::size_t>(idx)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a no-op when the log is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint32_t op = 0)
      : log_(log), idx_(log != nullptr ? log->open(name, op) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

[[nodiscard]] inline std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

/// Per-span-name sums over the spans of the given roots' trees.
struct SelfTimes {
  std::map<std::string, std::int64_t> self_ns;  ///< by span name
  std::int64_t root_ns = 0;       ///< summed duration of the roots
  std::int64_t layer_self_ns = 0; ///< self time of every non-bench span
  std::int64_t uncovered_ns = 0;  ///< self time of bench spans
};

/// Self time of a span = its duration minus its direct children's. Only
/// trees rooted at a span named `root` are counted.
[[nodiscard]] inline SelfTimes self_times(const std::vector<Span>& spans,
                                          std::string_view root) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<bool> counted(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
    const std::int32_t p = spans[i].parent;
    counted[i] = p < 0 ? std::string_view(spans[i].name) == root
                       : counted[static_cast<std::size_t>(p)];
    if (p >= 0) self[static_cast<std::size_t>(p)] -= self[i];
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!counted[i]) continue;
    if (spans[i].parent < 0) out.root_ns += spans[i].end - spans[i].start;
    out.self_ns[spans[i].name] += self[i];
    if (layer_of(spans[i].name) == "bench") {
      out.uncovered_ns += self[i];
    } else {
      out.layer_self_ns += self[i];
    }
  }
  return out;
}

}  // namespace hostbench
