#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>

#include "algos/connected_components.hpp"
#include "algos/radix_sort.hpp"
#include "algos/random_permutation.hpp"
#include "algos/spmv.hpp"
#include "algos/vm.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/selector.hpp"
#include "obs/trace.hpp"
#include "resilience/sweep.hpp"
#include "sim/machine.hpp"
#include "stats/histogram.hpp"
#include "stream/executor.hpp"
#include "workload/entropy.hpp"
#include "workload/graphs.hpp"
#include "workload/patterns.hpp"
#include "workload/sparse.hpp"

namespace hostbench {
namespace {

using namespace dxbsp;
namespace fs = std::filesystem;

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// The observers every figure bench attaches to each machine (cost
/// attribution, drift, engine-selection log); they feed the run report.
struct Observers {
  obs::AttributionAggregate attribution;
  obs::DriftDetector drift;
  obs::SelectorLog selector;
  std::uint64_t next_track = 0;

  void attach(sim::Machine& m) {
    const std::uint64_t track = next_track++;
    m.set_attribution(&attribution);
    m.set_drift(&drift, track);
    m.set_selector(&selector, track);
  }
};

/// Runs a generator inside a workload span and counts its elements.
template <typename F>
auto generate(Ctx& ctx, std::map<std::string, double>& counts, F&& gen) {
  Scope s(ctx.log, "workload.gen", ctx.op);
  auto out = gen();
  counts["workload.elements"] += static_cast<double>(out.size());
  return out;
}

std::unique_ptr<sim::Machine> build_machine(Ctx& ctx,
                                            const sim::MachineConfig& cfg,
                                            Observers& o) {
  Scope s(ctx.log, "sim.build", ctx.op);
  auto m = std::make_unique<sim::Machine>(cfg);
  o.attach(*m);
  return m;
}

void add_bulk(PassResult& r, Digest& d, const sim::BulkResult& b) {
  for (const std::uint64_t v :
       {b.cycles, b.n, b.max_bank_load, b.max_proc_requests, b.completed,
        b.retries, b.nacks, b.combined, b.cache_hits, b.cache_misses,
        b.stall_cycles, b.max_location_contention})
    d.add(v);
  r.requests += b.n + b.retries;
  r.counts["sim.requests"] += static_cast<double>(b.n + b.retries);
  r.counts["sim.retries"] += static_cast<double>(b.retries);
  r.counts["cache.hits"] += static_cast<double>(b.cache_hits);
  r.counts["cache.misses"] += static_cast<double>(b.cache_misses);
  r.counts["fault.nacks"] += static_cast<double>(b.nacks);
  r.counts["fault.degraded_cycles"] += static_cast<double>(b.degraded_cycles);
}

core::Prediction predict(Ctx& ctx, PassResult& r, Digest& d,
                         std::span<const std::uint64_t> addrs,
                         const sim::MachineConfig& cfg,
                         const mem::BankMapping& mapping) {
  core::Prediction p;
  {
    Scope s(ctx.log, "core.predict", ctx.op);
    p = core::predict_scatter(addrs, cfg, &mapping);
  }
  for (const std::uint64_t v : {p.bsp, p.dxbsp_location, p.dxbsp_mapped,
                                p.profile.max_contention})
    d.add(v);
  r.counts["core.predict_calls"] += 1;
  r.counts["core.elements"] += static_cast<double>(addrs.size());
  return p;
}

/// One generate-free sweep point: predict, then simulate the same trace.
void point(Ctx& ctx, PassResult& r, Digest& d, sim::Machine& m,
           std::span<const std::uint64_t> addrs) {
  const auto p = predict(ctx, r, d, addrs, m.config(), m.mapping());
  sim::BulkResult b;
  {
    Scope s(ctx.log, "sim.scatter", ctx.op);
    b = m.scatter(addrs);
  }
  add_bulk(r, d, b);
  r.model.emplace_back(static_cast<double>(p.dxbsp_mapped),
                       static_cast<double>(b.cycles));
}

/// Selector-log counts: rows, and ops per engine choice.
void count_selector(PassResult& r, const obs::SelectorLog& log) {
  const auto snap = log.snapshot();
  r.counts["obs.selector_rows"] += static_cast<double>(snap.rows.size());
  for (const auto& row : snap.rows)
    r.counts[std::string("sim.engine_ops.") +
             obs::engine_choice_name(row.choice)] += 1;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Writes the run report every figure bench writes with --report.
void write_report(Ctx& ctx, PassResult& r, const std::string& bench,
                  std::uint64_t seed, const Observers& o,
                  const obs::Tracer* tracer) {
  const std::string path = ctx.out_dir + "/report.json";
  {
    Scope s(ctx.log, "obs.report_write", ctx.op);
    obs::RunInfo info;
    info.bench = bench;
    info.seed = seed;
    obs::write_file(path, [&](std::ostream& os) {
      obs::write_report_json(os, info, obs::MetricsRegistry::global(), tracer,
                             &o.attribution, &o.drift, &o.selector);
    });
  }
  r.written_bytes += file_bytes(path);
  count_selector(r, o.selector);
}

// ---- paper_sweep ------------------------------------------------------

/// Figures 4, 5 and 6 plus the zipf entropy table, on both Cray presets:
/// generate -> predict -> simulate, generation inside the pass.
class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(std::uint64_t seed) : seed_(seed) {}

  void setup(Ctx&) override {
    machines_ = {sim::MachineConfig::cray_j90(),
                 sim::MachineConfig::cray_c90()};
  }

  PassResult pass(Ctx& ctx) override {
    obs::MetricsRegistry::global().reset();
    PassResult r;
    Digest d;
    Observers o;
    auto& c = r.counts;
    constexpr std::uint64_t kSpace = 1ULL << 30;
    for (const auto& cfg : machines_) {
      // Fig 4: one hot location receiving k requests; a machine per point.
      for (std::uint64_t k = 1; k <= kN; k *= 4) {
        const auto addrs = generate(
            ctx, c, [&] { return workload::k_hot(kN, k, kSpace, seed_ + k); });
        const auto m = build_machine(ctx, cfg, o);
        point(ctx, r, d, *m, addrs);
      }
      const auto m = build_machine(ctx, cfg, o);
      // Fig 5: m hot locations of k requests each, both sweeps.
      const std::uint64_t k5 = kN / 256;
      for (std::uint64_t hot = 1; hot * k5 <= kN / 2; hot *= 4) {
        const auto addrs = generate(ctx, c, [&] {
          return workload::multi_hot(kN, hot, k5, kSpace, seed_ + hot);
        });
        point(ctx, r, d, *m, addrs);
      }
      for (std::uint64_t k = 4; 64 * k <= kN / 2; k *= 4) {
        const auto addrs = generate(ctx, c, [&] {
          return workload::multi_hot(kN, 64, k, kSpace, seed_ + k);
        });
        point(ctx, r, d, *m, addrs);
      }
      // Fig 6: the Thearling-Smith entropy family.
      std::vector<workload::EntropyTrace> family;
      {
        Scope s(ctx.log, "workload.gen", ctx.op);
        family = workload::entropy_family(kN, 12, 26, 0, seed_);
        for (const auto& t : family)
          c["workload.elements"] += static_cast<double>(t.keys.size());
      }
      for (const auto& t : family) point(ctx, r, d, *m, t.keys);
      // Zipf table: skew graded by theta, entropy from stats.
      for (const double theta : {0.0, 0.5, 0.8, 1.0, 1.2, 1.5}) {
        const auto addrs = generate(ctx, c, [&] {
          return workload::zipf(kN / 4, 1 << 20, theta, seed_);
        });
        point(ctx, r, d, *m, addrs);
        double h = 0.0;
        {
          Scope s(ctx.log, "stats.entropy", ctx.op);
          h = stats::shannon_entropy(addrs);
        }
        d.add(h);
      }
    }
    write_report(ctx, r, "paper_sweep", seed_, o, nullptr);
    r.digest = d.h;
    return r;
  }

 private:
  static constexpr std::uint64_t kN = 1 << 15;
  std::uint64_t seed_;
  std::vector<sim::MachineConfig> machines_;
};

// ---- algorithm_suite --------------------------------------------------

/// Radix sort, spmv, connected components and random permutation through
/// algos::Vm on the J90: every irregular op is predicted and simulated.
/// Traced passes also capture each Vm op and replay it through
/// core::predict_scatter and Machine::scatter, which is how the core/sim
/// split of this workload is measured from outside the library.
class AlgorithmSuite final : public Workload {
 public:
  explicit AlgorithmSuite(std::uint64_t seed) : seed_(seed) {}

  void setup(Ctx& ctx) override {
    setup_counts_.clear();
    auto& c = setup_counts_;
    // Release the previous setup's inputs before building new ones.
    keys_ = {};
    csr_ = {};
    graph_ = {};
    keys_ = generate(ctx, c, [&] {
      return workload::uniform_random(kKeys, 1ULL << 32, seed_);
    });
    {
      Scope s(ctx.log, "workload.gen", ctx.op);
      csr_ = workload::random_csr(kRows, kRows, kNnzPerRow, seed_ + 1);
      graph_ = workload::random_gnm(kVertices, kEdges, seed_ + 2);
      c["workload.elements"] += static_cast<double>(csr_.nnz() + graph_.m());
    }
    x_.resize(kRows);
    for (std::uint64_t i = 0; i < kRows; ++i)
      x_[i] = static_cast<double>((seed_ * 2654435761ULL + i * 40503ULL) %
                                  1000) /
              1000.0;
  }

  void prepare_checks() override {
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    y_ref_ = csr_.multiply_reference(x_);
    cc_ref_ = workload::reference_components(graph_);
  }

  PassResult pass(Ctx& ctx) override {
    obs::MetricsRegistry::global().reset();
    PassResult r;
    Digest d;
    Observers o;
    const auto cfg = sim::MachineConfig::cray_j90();

    // Each algorithm runs inside its span; its output is checked after.
    algos::RadixSortResult rs;
    run(ctx, r, d, o, cfg, "algos.radix_sort",
        [&](algos::Vm& vm) { rs = algos::radix_sort(vm, keys_, 32); });
    bool ordered = rs.sorted_keys == sorted_ && rs.order.size() == kKeys;
    for (std::uint64_t i = 0; ordered && i < kKeys; ++i)
      ordered = rs.order[i] < kKeys && keys_[rs.order[i]] == sorted_[i];
    r.checks.check(ordered, "radix_sort output is not the sorted input");

    std::vector<double> y;
    run(ctx, r, d, o, cfg, "algos.spmv",
        [&](algos::Vm& vm) { y = algos::spmv(vm, csr_, x_); });
    bool close = y.size() == y_ref_.size();
    for (std::size_t i = 0; close && i < y.size(); ++i)
      close = std::abs(y[i] - y_ref_[i]) <= 1e-9 * (1.0 + std::abs(y_ref_[i]));
    r.checks.check(close, "spmv differs from the host dot products");

    std::vector<std::uint32_t> labels;
    run(ctx, r, d, o, cfg, "algos.connected_components", [&](algos::Vm& vm) {
      labels = algos::connected_components(vm, graph_);
    });
    r.checks.check(algos::same_partition(labels, cc_ref_),
                   "connected_components partition differs from the reference");

    std::vector<std::uint64_t> perm;
    run(ctx, r, d, o, cfg, "algos.random_permutation", [&](algos::Vm& vm) {
      perm = algos::random_permutation_qrqw(vm, kPerm, seed_ + 3);
    });
    r.checks.check(algos::is_permutation_of_iota(perm),
                   "random_permutation is not a permutation");

    write_report(ctx, r, "algorithm_suite", seed_, o, nullptr);
    r.digest = d.h;
    return r;
  }

  [[nodiscard]] std::map<std::string, double> setup_counts() const override {
    return setup_counts_;
  }

 private:
  using Op = std::pair<std::string, std::vector<std::uint64_t>>;

  template <typename F>
  void run(Ctx& ctx, PassResult& r, Digest& d, Observers& o,
           const sim::MachineConfig& cfg, const char* span, F&& body) {
    std::vector<Op> ops;
    std::unique_ptr<algos::Vm> vm;
    {
      Scope s(ctx.log, span, ctx.op);
      vm = std::make_unique<algos::Vm>(cfg);
      o.attach(vm->machine());
      if (ctx.log != nullptr)
        vm->set_trace_hook(
            [&ops](const std::string& label,
                   std::span<const std::uint64_t> addrs) {
              ops.emplace_back(label, std::vector<std::uint64_t>(
                                          addrs.begin(), addrs.end()));
            });
      body(*vm);
    }
    const auto& ledger = vm->ledger();
    for (const auto& e : ledger.entries())
      for (const std::uint64_t v :
           {e.n, e.max_contention, e.sim_cycles, e.pred_dxbsp, e.pred_bsp})
        d.add(v);
    r.model.emplace_back(static_cast<double>(ledger.total_dxbsp()),
                         static_cast<double>(ledger.total_sim()));
    r.counts["algos.elements"] += static_cast<double>(ledger.total_requests());
    // This Vm's machine was attached last, so its rows carry that track.
    const auto snap = o.selector.snapshot();
    for (const auto& row : snap.rows)
      if (row.track == o.next_track - 1) {
        r.requests += row.n;
        r.counts["algos.irregular_ops"] += 1;
      }
    if (ctx.log == nullptr) return;
    // Replay: the same ops through the predictor and the simulator.
    Scope s(ctx.log, "bench.replay", ctx.op);
    sim::Machine& m = vm->machine();
    m.set_selector(nullptr);
    m.set_drift(nullptr);
    m.set_attribution(nullptr);
    Digest scratch;
    for (const auto& [label, addrs] : ops) {
      (void)predict(ctx, r, scratch, addrs, cfg, m.mapping());
      sim::BulkResult b;
      {
        Scope sc(ctx.log, "sim.scatter", ctx.op);
        b = m.scatter(addrs);
      }
      add_bulk(r, scratch, b);
    }
  }

  static constexpr std::uint64_t kKeys = 1 << 16;
  static constexpr std::uint64_t kRows = 1 << 15;
  static constexpr std::uint64_t kNnzPerRow = 8;
  static constexpr std::uint64_t kVertices = 1 << 15;
  static constexpr std::uint64_t kEdges = 1 << 16;
  static constexpr std::uint64_t kPerm = 1 << 16;
  std::uint64_t seed_;
  std::vector<std::uint64_t> keys_;
  workload::CsrMatrix csr_;
  std::vector<double> x_;
  workload::Graph graph_;
  std::vector<std::uint64_t> sorted_;
  std::vector<double> y_ref_;
  std::vector<std::uint32_t> cc_ref_;
  std::map<std::string, double> setup_counts_;
};

// ---- engine_classes ---------------------------------------------------

/// One traffic class of bench_perf_hotpath: machine, trace, fault plan.
struct EngineClass {
  const char* span;  ///< "sim.<class>"
  sim::MachineConfig cfg;
  std::vector<std::uint64_t> addrs;
  std::shared_ptr<const fault::FaultPlan> plan;
};

/// The five bench_perf_hotpath classes, at its default sizes, plus one
/// class with a processor cache tier, through Machine::scatter_faulty
/// under Engine::kAuto; traces built in setup.
class EngineClasses final : public Workload {
 public:
  explicit EngineClasses(std::uint64_t seed) : seed_(seed) {}

  void setup(Ctx& ctx) override {
    setup_counts_.clear();
    auto& c = setup_counts_;
    classes_.clear();
    const std::uint64_t small = kHeadline / 4;
    const auto add = [&](const char* span, const std::string& spec,
                         std::vector<std::uint64_t> addrs) {
      classes_.push_back(EngineClass{span, sim::MachineConfig::parse(spec),
                                     std::move(addrs), nullptr});
    };
    add("sim.uniform", "p=64,x=4,d=8,g=1,L=8", generate(ctx, c, [&] {
          return workload::uniform_random(kHeadline, 1ULL << 26, seed_);
        }));
    add("sim.hot_tight_window", "p=16,x=4,d=4,g=1,L=8,S=64",
        generate(ctx, c, [&] {
          return workload::k_hot(small, small / 8, 1ULL << 24, seed_ + 1);
        }));
    add("sim.combining_multihot", "p=16,x=4,d=4,g=1,L=8,combine=1",
        generate(ctx, c, [&] {
          return workload::multi_hot(small, 32, small / 64, 1ULL << 24,
                                     seed_ + 2);
        }));
    add("sim.cached_stride",
        "p=16,x=4,d=8,g=1,L=8,cache-lines=4,line-words=8,cached-delay=1",
        generate(ctx, c, [&] { return workload::strided(small, 1, 0); }));
    add("sim.faulty_drop_retry", "p=16,x=4,d=4,g=1,L=8", generate(ctx, c, [&] {
          return workload::uniform_random(small, 1ULL << 24, seed_ + 4);
        }));
    auto& faulty = classes_.back();
    fault::FaultConfig fc;
    fc.seed = seed_ + 3;
    fc.drop_rate = 0.02;
    fc.slow_fraction = 0.25;
    fc.slow_multiplier = 4;
    {
      Scope s(ctx.log, "fault.plan", ctx.op);
      faulty.plan = std::make_shared<fault::FaultPlan>(fc, faulty.cfg.banks());
    }
    // Processor cache tier as bench_fig20_cache_sweep configures it (64
    // lines of 8 words, 8-way, write-back) on its zipf pattern: hits and
    // misses both occur, and hits never reach the banks.
    add("sim.cache_tier_zipf",
        "p=16,x=4,d=8,g=1,L=8,cache=64,cache-line=8,cache-assoc=8,"
        "cache-write=back",
        generate(ctx, c, [&] {
          return workload::zipf(small, 1ULL << 20, 1.1, seed_ + 5);
        }));
  }

  PassResult pass(Ctx& ctx) override {
    obs::MetricsRegistry::global().reset();
    PassResult r;
    Digest d;
    Observers o;
    measured_.clear();
    for (const auto& ec : classes_) {
      sim::FaultyBulk out;
      {
        Scope s(ctx.log, ec.span, ctx.op);
        sim::Machine m(ec.cfg);
        m.set_engine(sim::Machine::Engine::kAuto);
        if (ec.plan) m.inject(ec.plan);
        o.attach(m);
        out = m.scatter_faulty(ec.addrs);
      }
      add_bulk(r, d, out.bulk);
      const std::uint64_t failed =
          out.degraded ? out.degraded->failed_requests : 0;
      r.checks.check(out.bulk.completed + failed == ec.addrs.size(),
              std::string(ec.span) + ": requests not conserved");
      r.counts[std::string(ec.span) + ".requests"] +=
          static_cast<double>(out.bulk.n + out.bulk.retries);
      measured_.push_back(static_cast<double>(out.bulk.cycles));
    }
    write_report(ctx, r, "engine_classes", seed_, o, nullptr);
    r.digest = d.h;
    return r;
  }

  /// The passes predict nothing; the model error is taken afterwards.
  std::vector<std::pair<double, double>> model_outside() override {
    std::vector<std::pair<double, double>> out;
    for (std::size_t i = 0; i < classes_.size() && i < measured_.size(); ++i) {
      const auto& ec = classes_[i];
      // The flat model has neither faults nor a processor cache tier.
      if (ec.plan || ec.cfg.cache.enabled()) continue;
      const sim::Machine m(ec.cfg);
      const auto p = core::predict_scatter(ec.addrs, ec.cfg, &m.mapping());
      out.emplace_back(static_cast<double>(p.dxbsp_mapped), measured_[i]);
    }
    return out;
  }

  [[nodiscard]] std::map<std::string, double> setup_counts() const override {
    return setup_counts_;
  }

 private:
  static constexpr std::uint64_t kHeadline = 1 << 20;
  std::uint64_t seed_;
  std::vector<EngineClass> classes_;
  std::vector<double> measured_;
  std::map<std::string, double> setup_counts_;
};

// ---- observed_sweep ---------------------------------------------------

/// A fig4-shaped sweep under SweepRunner with a checkpoint at every point
/// and an exact tracer, the report and Chrome trace written at the end,
/// plus one streaming pass whose memory budget forces spill.
class ObservedSweep final : public Workload {
 public:
  explicit ObservedSweep(std::uint64_t seed) : seed_(seed) {}

  void setup(Ctx& ctx) override {
    setup_counts_.clear();
    cfg_ = sim::MachineConfig::cray_j90();
    keys_.clear();
    traces_.clear();
    for (std::uint64_t k = 1; k <= kN; k *= 4) {
      keys_.push_back(k);
      traces_.push_back(generate(ctx, setup_counts_, [&] {
        return workload::k_hot(kN, k, 1ULL << 30, seed_ + k);
      }));
    }
  }

  PassResult pass(Ctx& ctx) override {
    obs::MetricsRegistry::global().reset();
    PassResult r;
    Digest d;
    Observers o;
    obs::Tracer tracer(kRingCapacity);

    resilience::SweepOptions opt;
    opt.checkpoint_path = ctx.out_dir + "/sweep.snap";
    opt.checkpoint_every = 1;
    opt.handle_signals = false;
    std::optional<resilience::SweepRunner> runner;
    resilience::SweepReport report;
    {
      Scope s(ctx.log, "resilience.sweep", ctx.op);
      runner.emplace(resilience::sweep_id("hostbench_observed", {kN, seed_}),
                     std::move(opt));
      report = runner->run(keys_, [&](std::uint64_t k) {
        Scope p(ctx.log, "bench.point", ctx.op);
        const std::size_t i = static_cast<std::size_t>(
            std::find(keys_.begin(), keys_.end(), k) - keys_.begin());
        const auto m = build_machine(ctx, cfg_, o);
        m->set_tracer(&tracer.track(k));
        resilience::SnapshotRecord rec;
        rec.key = k;
        rec.rng_state = seed_ + k;
        const auto pred = predict(ctx, r, d, traces_[i], cfg_, m->mapping());
        {
          Scope sc(ctx.log, "sim.scatter", ctx.op);
          rec.result = m->scatter(traces_[i]);
        }
        rec.aux[0] = pred.dxbsp_mapped;
        return rec;
      });
    }
    for (const std::uint64_t k : keys_) {
      const auto& rec = runner->record(k);
      add_bulk(r, d, rec.result);
      r.model.emplace_back(static_cast<double>(rec.aux[0]),
                           static_cast<double>(rec.result.cycles));
    }
    r.checks.check(report.ok() && report.completed == keys_.size(),
            "sweep did not complete every point");
    r.written_bytes += file_bytes(ctx.out_dir + "/sweep.snap");

    stream::StreamResult sr;
    {
      Scope s(ctx.log, "stream.run", ctx.op);
      sim::Machine m(cfg_);
      o.attach(m);
      m.set_tracer(&tracer.track(kStreamTrack));
      stream::StreamHooks hooks;
      hooks.trace = m.tracer();
      sr = stream::StreamExecutor(stream_config(true, ctx.out_dir), m, hooks)
               .run();
    }
    r.checks.check(sr.spilled && sr.checksum == in_ram_checksum_,
            "spilled stream checksum differs from the in-RAM checksum");
    d.add(sr.checksum);
    d.add(sr.cycles);
    r.requests += sr.elements;
    r.written_bytes += sr.spilled_bytes;
    r.counts["stream.spilled_bytes"] += static_cast<double>(sr.spilled_bytes);
    r.counts["stream.spill_chunks"] += static_cast<double>(sr.spill_chunks);
    r.counts["stream.back_pressure_events"] +=
        static_cast<double>(sr.back_pressure_events);
    r.counts["sim.requests"] += static_cast<double>(sr.elements);

    const std::string trace_path = ctx.out_dir + "/trace.json";
    {
      Scope s(ctx.log, "obs.trace_write", ctx.op);
      obs::write_file(trace_path,
                      [&](std::ostream& os) { tracer.write_chrome_json(os); });
    }
    const std::uint64_t trace_bytes = file_bytes(trace_path);
    r.written_bytes += trace_bytes;
    // Events the rings received; the file holds those not overwritten.
    r.counts["obs.trace_events"] +=
        static_cast<double>(tracer.total_recorded());
    r.counts["obs.trace_events_written"] += static_cast<double>(
        tracer.total_recorded() - tracer.total_dropped());
    r.counts["obs.trace_bytes"] += static_cast<double>(trace_bytes);
    write_report(ctx, r, "observed_sweep", seed_, o, &tracer);
    r.digest = d.h;
    return r;
  }

  /// The reference the spilled run must match: the same stream in RAM.
  void prepare_checks() override {
    sim::Machine m(cfg_);
    in_ram_checksum_ =
        stream::StreamExecutor(stream_config(false, ""), m).run().checksum;
  }

  [[nodiscard]] std::map<std::string, double> setup_counts() const override {
    return setup_counts_;
  }

 private:
  [[nodiscard]] stream::StreamConfig stream_config(
      bool spill, const std::string& dir) const {
    stream::StreamConfig c;
    c.n = kStreamN;
    c.space = cfg_.banks() * 1024;
    c.seed = seed_;
    c.hot_every = 64;
    c.slab_bytes = std::uint64_t{64} << 10;
    c.partitions = 8;
    if (spill) {
      c.mem_budget = kStreamN * sizeof(std::uint64_t) / 8;
      c.spill_dir = dir + "/spill";
    }
    return c;
  }


  static constexpr std::uint64_t kN = 1 << 16;
  static constexpr std::uint64_t kStreamN = 1 << 17;
  static constexpr std::size_t kRingCapacity = 1 << 11;
  static constexpr std::uint64_t kStreamTrack = ~0ULL;
  std::uint64_t seed_;
  sim::MachineConfig cfg_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<std::uint64_t>> traces_;
  std::uint64_t in_ram_checksum_ = 0;
  std::map<std::string, double> setup_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "algorithm_suite") return std::make_unique<AlgorithmSuite>(seed);
  if (name == "engine_classes") return std::make_unique<EngineClasses>(seed);
  if (name == "observed_sweep") return std::make_unique<ObservedSweep>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace hostbench
