// Layer microbenchmarks of the host-side access analysis and workload
// generation (docs/performance.md §host-side access analysis).
//
// These are the per-op costs that sit in front of every simulated bulk
// op: generating the trace (k_hot, multi_hot, zipf), counting location
// contention k (analyze_locations), routing to banks for h_bank
// (analyze_banks, per mapping), and grading key entropy
// (shannon_entropy). Behind them, the simulator layer: Machine::scatter
// pinned to the SoA chain kernel, and one algos::Vm::gather (route,
// profile, simulate and predict in one op). Each runs at n = 2^15 (a
// hostbench paper_sweep op) and n = 2^20 (the figure benches' default),
// except gen/zipf_table, which draws 2^13 and 2^18 samples from a
// 2^20-rank table, the figures' shape. Reported as items/s; there is no gate on these numbers — the
// end-to-end benchmark is hostbench.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algos/vm.hpp"
#include "mem/bank_mapping.hpp"
#include "mem/contention.hpp"
#include "sim/machine.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"
#include "workload/patterns.hpp"

namespace {

namespace mem = dxbsp::mem;
namespace workload = dxbsp::workload;

constexpr std::uint64_t kSpace = 1ULL << 26;
constexpr std::uint64_t kBanks = 1024;

void set_items(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

/// A k-hot trace with k = n/64: repeats plus a distinct tail, the fig4
/// mid-sweep shape.
std::vector<std::uint64_t> trace_for(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  return workload::k_hot(n, n / 64, kSpace, 1995);
}

void bm_analyze_locations(benchmark::State& state) {
  const auto addrs = trace_for(state);
  for (auto _ : state) {
    const auto lc = mem::analyze_locations(addrs);
    benchmark::DoNotOptimize(lc);
  }
  set_items(state);
}

void bm_analyze_banks(benchmark::State& state, const char* mapping) {
  const auto addrs = trace_for(state);
  dxbsp::util::Xoshiro256 rng(7);
  const auto m = mem::make_mapping(mapping, kBanks, rng);
  for (auto _ : state) {
    const auto bl = mem::analyze_banks(addrs, *m);
    benchmark::DoNotOptimize(bl.load.data());
    benchmark::ClobberMemory();
  }
  set_items(state);
}

void bm_shannon_entropy(benchmark::State& state) {
  const auto addrs = trace_for(state);
  for (auto _ : state) {
    const double h = dxbsp::stats::shannon_entropy(addrs);
    benchmark::DoNotOptimize(h);
  }
  set_items(state);
}

void bm_k_hot(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto xs = workload::k_hot(n, n / 64, kSpace, seed++);
    benchmark::DoNotOptimize(xs.data());
  }
  set_items(state);
}

void bm_multi_hot(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto xs = workload::multi_hot(n, 64, n / 256, kSpace, seed++);
    benchmark::DoNotOptimize(xs.data());
  }
  set_items(state);
}

void bm_zipf(benchmark::State& state, double theta) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto xs = workload::zipf(n, n, theta, seed++);
    benchmark::DoNotOptimize(xs.data());
  }
  set_items(state);
}

/// zipf at the figures' shape: every call builds a 2^20-rank table, as
/// fig6, fig20 and the hostbench paper_sweep do, to draw n samples.
void bm_zipf_table(benchmark::State& state, double theta) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto xs = workload::zipf(n, 1ULL << 20, theta, seed++);
    benchmark::DoNotOptimize(xs.data());
  }
  set_items(state);
}

/// Machine::scatter forced onto the SoA kernel: the J90 with its window
/// widened to n so every op is SoA-eligible (no observers attached).
void bm_scatter_soa(benchmark::State& state) {
  const auto addrs = trace_for(state);
  auto cfg = dxbsp::sim::MachineConfig::cray_j90();
  cfg.slackness = addrs.size();
  dxbsp::sim::Machine machine(cfg);
  machine.selector().force(dxbsp::obs::EngineChoice::kSoA);
  for (auto _ : state) {
    const auto res = machine.scatter(addrs);
    benchmark::DoNotOptimize(res.cycles);
  }
  set_items(state);
}

/// One Vm::gather of n uniform indices into an n-word array on the J90.
void bm_vm_gather(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  dxbsp::algos::Vm vm(dxbsp::sim::MachineConfig::cray_j90());
  const auto src = vm.make_array<std::uint64_t>(n, 1);
  const auto idx = workload::uniform_random(n, n, 1995);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    vm.gather(out, src, idx, "gather");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_items(state);
}

void sizes(benchmark::internal::Benchmark* b) {
  b->Arg(1 << 15)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);
}

void register_all() {
  sizes(benchmark::RegisterBenchmark("analyze_locations",
                                     bm_analyze_locations));
  for (const char* m : {"interleaved", "bit-reversal", "linear"})
    sizes(benchmark::RegisterBenchmark(
        (std::string("analyze_banks/") + m).c_str(), bm_analyze_banks, m));
  sizes(benchmark::RegisterBenchmark("shannon_entropy", bm_shannon_entropy));
  sizes(benchmark::RegisterBenchmark("sim/scatter_soa", bm_scatter_soa));
  sizes(benchmark::RegisterBenchmark("vm/gather", bm_vm_gather));
  sizes(benchmark::RegisterBenchmark("gen/k_hot", bm_k_hot));
  sizes(benchmark::RegisterBenchmark("gen/multi_hot", bm_multi_hot));
  for (const double theta : {0.0, 0.8, 1.0})
    sizes(benchmark::RegisterBenchmark(
        ("gen/zipf/theta=" + std::to_string(theta).substr(0, 3)).c_str(),
        bm_zipf, theta));
  // n = 2^13 is a paper_sweep zipf op, 2^18 is fig6 at its default n.
  benchmark::RegisterBenchmark("gen/zipf_table/theta=0.8", bm_zipf_table, 0.8)
      ->Arg(1 << 13)
      ->Arg(1 << 18)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Layer microbench: host-side access analysis ===\n"
              "Per-element host cost of trace generation, contention "
              "analysis and the simulator (items/s).\n\n");
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
