// Perf 4: hot-path regression harness for the event engine.
//
// Runs the same workloads through all THREE engine modes in one
// invocation — the reference priority_queue loop, the fixed batched
// route (kAuto with selector().force(kDense): the dense path where the
// op is dense-eligible, the binary-heap scheduler otherwise), and the
// adaptive selector (kAuto, the default; docs/performance.md §selector)
// — and reports simulator throughput as host metrics: events processed
// per wall-clock second and simulated cycles per second, per scenario
// and mode, plus the auto-vs-best-fixed speedup (best fixed = the
// faster of reference and the fixed route). Every run also cross-checks
// that all modes produced identical telemetry (the cheap always-on slice
// of tests/engine_equivalence_test.cpp), so the sanitizer CI job gets
// correctness value from the bench even though it skips the throughput
// gate.
//
// The scenario set covers the hot-path variants that take different
// code: the SoA batched kernel (headline: uniform random, p=64, x=4,
// d=8, 1M requests), the scheduled path (tight slackness window),
// combining, bank caching, and a faulty run (retry backoffs through the
// scheduler).
//
// Flags beyond the shared set (--seed, --csv, observability):
//   --n=N        headline request count        (default 1048576)
//   --reps=R     timed repetitions, best-of    (default 3)
//   --quick      CI smoke sizing: n/16, reps=2 (scripts/ci.sh)
//
// scripts/ci.sh runs `--quick --metrics=...` and compares each
// scenario's auto-vs-best-fixed speedup against the committed
// BENCH_9.json baseline (20% tolerance). Refresh the baseline with:
//   ./build/bench/bench_perf_hotpath --metrics=BENCH_9.json

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "workload/patterns.hpp"

namespace {

using namespace dxbsp;

struct Scenario {
  std::string name;
  sim::MachineConfig cfg;
  std::vector<std::uint64_t> addrs;
  std::shared_ptr<const fault::FaultPlan> plan;
};

struct Measurement {
  double events_per_sec = 0.0;
  double cycles_per_sec = 0.0;
  sim::BulkResult bulk;
};

/// `force` pins the selector's raw choice (the fixed column).
Measurement run_engine(const Scenario& sc, sim::Machine::Engine engine,
                       std::uint64_t reps,
                       std::optional<obs::EngineChoice> force = std::nullopt) {
  sim::Machine m(sc.cfg);
  m.set_engine(engine);
  m.selector().force(force);
  if (sc.plan) m.inject(sc.plan);

  Measurement best;
  for (std::uint64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = m.scatter_faulty(sc.addrs);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    // Scheduler events processed: one per fresh issue plus one per retry.
    const double events =
        static_cast<double>(out.bulk.n + out.bulk.retries);
    const double evps = sec > 0.0 ? events / sec : 0.0;
    if (evps > best.events_per_sec) {
      best.events_per_sec = evps;
      best.cycles_per_sec =
          sec > 0.0 ? static_cast<double>(out.bulk.cycles) / sec : 0.0;
      best.bulk = out.bulk;
    }
  }
  return best;
}

/// The engines must agree exactly; a mismatch is a correctness bug, not
/// a perf regression, and fails the bench loudly.
void check_agreement(const Scenario& sc, const char* mode,
                     const sim::BulkResult& got, const sim::BulkResult& ref) {
  if (got.cycles != ref.cycles || got.completed != ref.completed ||
      got.retries != ref.retries || got.stall_cycles != ref.stall_cycles ||
      got.max_bank_load != ref.max_bank_load ||
      got.combined != ref.combined || got.cache_hits != ref.cache_hits) {
    raise(ErrorCode::kInternal,
          "bench_perf_hotpath: engine mismatch in scenario '" + sc.name +
              "' (" + mode + " " + std::to_string(got.cycles) +
              " cycles vs reference " + std::to_string(ref.cycles) + ")");
  }
}

std::vector<Scenario> build_scenarios(std::uint64_t n_headline,
                                      std::uint64_t seed) {
  std::vector<Scenario> out;
  const std::uint64_t n_small = std::max<std::uint64_t>(n_headline / 4, 1024);

  {
    // Headline: the acceptance config — uniform random scatter on
    // p=64, x=4, d=8. No faults, default slackness: dense fast path.
    Scenario sc;
    sc.name = "uniform_p64_x4_d8";
    sc.cfg = sim::MachineConfig::parse("p=64,x=4,d=8,g=1,L=8");
    sc.addrs = workload::uniform_random(n_headline, 1ULL << 26, seed);
    out.push_back(std::move(sc));
  }
  {
    // Tight slackness: the completion-window gate binds, so the general
    // heap-scheduled path (and its stall bookkeeping) is what is timed.
    Scenario sc;
    sc.name = "hot_tight_window";
    sc.cfg = sim::MachineConfig::parse("p=16,x=4,d=4,g=1,L=8,S=64");
    sc.addrs = workload::k_hot(n_small, n_small / 8, 1ULL << 24, seed + 1);
    out.push_back(std::move(sc));
  }
  {
    Scenario sc;
    sc.name = "combining_multihot";
    sc.cfg = sim::MachineConfig::parse("p=16,x=4,d=4,g=1,L=8,combine=1");
    sc.addrs =
        workload::multi_hot(n_small, 32, n_small / 64, 1ULL << 24, seed + 2);
    out.push_back(std::move(sc));
  }
  {
    Scenario sc;
    sc.name = "cached_stride";
    sc.cfg = sim::MachineConfig::parse(
        "p=16,x=4,d=8,g=1,L=8,cache-lines=4,line-words=8,cached-delay=1");
    sc.addrs = workload::strided(n_small, 1, 0);
    out.push_back(std::move(sc));
  }
  {
    // Faulty: drops with a retry budget — backoffs land far in the
    // future, timing the scheduler under retries and the fault path.
    Scenario sc;
    sc.name = "faulty_drop_retry";
    sc.cfg = sim::MachineConfig::parse("p=16,x=4,d=4,g=1,L=8");
    fault::FaultConfig fc;
    fc.seed = seed + 3;
    fc.drop_rate = 0.02;
    fc.slow_fraction = 0.25;
    fc.slow_multiplier = 4;
    sc.plan = std::make_shared<fault::FaultPlan>(fc, sc.cfg.banks());
    sc.addrs = workload::uniform_random(n_small, 1ULL << 24, seed + 4);
    out.push_back(std::move(sc));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dxbsp;
  return bench::guarded([&] {
    const util::Cli cli(argc, argv);
    const bool quick = cli.has("quick");
    const std::uint64_t n =
        cli.get_uint("n", quick ? (1u << 16) : (1u << 20));
    const std::uint64_t reps = cli.get_uint("reps", quick ? 2 : 3);
    const std::uint64_t seed = cli.get_uint("seed", 1995);

    bench::Obs obs(cli, "Perf 4 (hot path)",
                   "Event-engine throughput, auto vs fixed vs reference; "
                   "headline n = " + std::to_string(n) +
                       ", reps = " + std::to_string(reps));

    auto& reg = obs::MetricsRegistry::global();
    util::Table t({"scenario", "n", "ref Mev/s", "fixed Mev/s", "auto Mev/s",
                   "speedup", "cycles"});
    double worst_speedup = 1e300;
    std::string worst_name = "none";

    for (const auto& sc : build_scenarios(n, seed)) {
      const auto ref = run_engine(sc, sim::Machine::Engine::kReference, reps);
      // Dense where eligible, heap otherwise: a forced kDense is demoted
      // to kHeap on ops the dense path cannot run exactly.
      const auto fixed = run_engine(sc, sim::Machine::Engine::kAuto, reps,
                                    obs::EngineChoice::kDense);
      const auto aut = run_engine(sc, sim::Machine::Engine::kAuto, reps);
      check_agreement(sc, "fixed", fixed.bulk, ref.bulk);
      check_agreement(sc, "auto", aut.bulk, ref.bulk);

      // The headline figure: does the adaptive selector beat the BETTER
      // of the two fixed engines on this workload class?
      const double best_fixed =
          std::max(ref.events_per_sec, fixed.events_per_sec);
      const double speedup =
          best_fixed > 0.0 ? aut.events_per_sec / best_fixed : 0.0;
      if (speedup < worst_speedup) {
        worst_speedup = speedup;
        worst_name = sc.name;
      }
      t.add_row(sc.name, sc.addrs.size(), ref.events_per_sec / 1e6,
                fixed.events_per_sec / 1e6, aut.events_per_sec / 1e6, speedup,
                aut.bulk.cycles);

      // Host metrics (wall-clock dependent, excluded from deterministic
      // run reports; BENCH_9.json is written via --metrics, which
      // includes them).
      const std::string pre = "perf." + sc.name;
      reg.gauge(pre + ".events_per_sec.reference", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(ref.events_per_sec));
      reg.gauge(pre + ".events_per_sec.fixed", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(fixed.events_per_sec));
      reg.gauge(pre + ".events_per_sec.auto", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(aut.events_per_sec));
      reg.gauge(pre + ".cycles_per_sec.reference", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(ref.cycles_per_sec));
      reg.gauge(pre + ".cycles_per_sec.fixed", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(fixed.cycles_per_sec));
      reg.gauge(pre + ".cycles_per_sec.auto", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(aut.cycles_per_sec));
      reg.gauge(pre + ".speedup_x100", obs::Stability::kHost)
          .observe(static_cast<std::uint64_t>(speedup * 100.0));
    }

    bench::emit(cli, t);
    std::cout << "worst auto-vs-best-fixed speedup: " << worst_speedup
              << "x (" << worst_name
              << "; acceptance target: >= 1x on every class)\n"
              << "Engine modes cross-checked: identical telemetry on every "
                 "scenario.\n";
    return obs.finish();
  });
}
