#pragma once
// Shared plumbing for the experiment binaries: every bench prints the
// rows/series of one paper table or figure (ASCII by default, CSV with
// --csv), takes --seed, and sizes down cleanly with --n for smoke runs.
//
// Long-running sweeps additionally take the resilience flags
// (docs/resilience.md):
//   --checkpoint=PATH   crash-atomic snapshot of completed grid points
//   --resume=PATH       skip points already in PATH (sweep_id-checked)
//   --deadline=SECONDS  stop cleanly when the wall-clock budget expires
//   --stall-timeout=S   watchdog: abort if the event loop stops advancing
//   --checkpoint-every=K  flush cadence in completed points (default 1)
//   --threads=T         fan grid points over a thread pool
// An interrupted sweep prints a structured outcome and exits 75
// (EX_TEMPFAIL) so scripts can tell "resume me" from "I failed".

#include <iostream>
#include <memory>
#include <string>

#include "obs/report.hpp"
#include "resilience/error.hpp"
#include "resilience/shard.hpp"
#include "resilience/sweep.hpp"
#include "sim/machine.hpp"
#include "sim/machine_config.hpp"
#include "svc/worker.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace dxbsp::bench {

/// Prints the experiment banner: id, description, machine.
inline void banner(const std::string& id, const std::string& what) {
  std::cout << "=== " << id << " ===\n" << what << "\n\n";
}

/// Flags that shape execution rather than the workload. They are kept
/// out of run reports so a report is byte-identical across --threads /
/// checkpointing settings (docs/observability.md).
inline bool is_execution_flag(const std::string& name) {
  // --svc-lease is execution-shaping (which shard, where the protocol
  // files live) so a fleet worker's RunInfo matches the serial run's and
  // merged reports stay byte-comparable. --shard is NOT here: a
  // standalone shard run computes a different grid, which must show in
  // its report identity.
  return name == "checkpoint" || name == "resume" || name == "deadline" ||
         name == "stall-timeout" || name == "checkpoint-every" ||
         name == "threads" || name == "trace" || name == "trace-capacity" ||
         name == "report" || name == "report-csv" || name == "metrics" ||
         name == "svc-lease";
}

/// Parses --engine=auto|reference (docs/performance.md
/// §selector). kAuto is the default; pinning is a workload flag — it can
/// change which code ran and therefore the selector section — so it is
/// NOT in is_execution_flag.
inline sim::Machine::Engine engine_from_cli(const util::Cli& cli) {
  const std::string name = cli.get("engine", "auto");
  if (name == "auto") return sim::Machine::Engine::kAuto;
  if (name == "reference") return sim::Machine::Engine::kReference;
  raise(ErrorCode::kConfig,
        "--engine must be auto or reference (got '" + name + "')");
}

/// Observability wiring shared by every bench (docs/observability.md):
///   --trace=PATH         Chrome trace_event JSON of the simulated runs
///   --trace-capacity=N   retained events per track (default 65536)
///   --report=PATH        versioned JSON run report
///   --report-csv=PATH    the same report as CSV rows
///   --metrics=PATH       full metrics dump (includes host metrics)
///   --drift-band=X       drift-detector relative-error band (default 0.25)
///   --engine=E           pin the execution engine (default: auto)
/// Construct one per invocation (prints the banner), attach() every
/// Machine the bench drives (one track per sweep point), and return
/// through finish() so the files get written — also on the interrupted
/// (exit 75) path, where a partial report is still useful.
///
/// Cost attribution, drift detection and the engine-selection log are
/// always on (deterministic and cheap); their aggregates land in the
/// report's "attribution", "drift" and "selector" sections whenever
/// --report/--report-csv is given.
class Obs {
 public:
  Obs(const util::Cli& cli, const std::string& id, const std::string& what)
      : trace_path_(cli.get("trace", "")),
        report_path_(cli.get("report", "")),
        report_csv_path_(cli.get("report-csv", "")),
        metrics_path_(cli.get("metrics", "")),
        drift_(obs::DriftConfig{cli.get_double("drift-band", 0.25)}),
        engine_(engine_from_cli(cli)) {
    banner(id, what);
    info_.bench = id;
    info_.description = what;
    info_.machine = cli.get("machine", "");
    info_.seed = cli.get_uint("seed", 0);
    for (const auto& [name, value] : cli.flags())
      if (!is_execution_flag(name)) info_.flags.emplace_back(name, value);
    if (!trace_path_.empty())
      tracer_ = std::make_unique<obs::Tracer>(static_cast<std::size_t>(
          cli.get_uint("trace-capacity", std::uint64_t{1} << 16)));
    // A bench invocation reports from zero even if the process (a test
    // harness, say) already ran simulations.
    obs::MetricsRegistry::global().reset();
  }

  /// Routes the machine's trace events into this run's tracer under
  /// `track` (use the sweep-point key), applies the --engine selection,
  /// and wires the machine's cost attribution, drift samples and
  /// selector rows into this run's aggregates. Without --trace, a fleet
  /// worker's flight-recorder tracer (svc/worker.hpp) stands in — in
  /// PASSIVE mode, so engine selection (and thus every deterministic
  /// report section, selector log included) stays byte-identical to an
  /// untraced serial run; the ring sees whatever the chosen engine
  /// emits, at minimum each point's superstep span.
  void attach(sim::Machine& machine, std::uint64_t track = 0) {
    if (tracer_) {
      machine.set_tracer(&tracer_->track(track));
    } else if (flight_tracer_ != nullptr) {
      machine.set_tracer(&flight_tracer_->track(track), /*passive=*/true);
    }
    machine.set_engine(engine_);
    machine.set_attribution(&attribution_);
    machine.set_drift(&drift_, track);
    machine.set_selector(&selector_, track);
  }

  /// Fleet-worker hook (apply_sharding): the flight ring's private
  /// tracer, used only when the run has no --trace tracer of its own.
  void set_flight_tracer(obs::Tracer* t) noexcept { flight_tracer_ = t; }

  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] obs::AttributionAggregate& attribution() noexcept {
    return attribution_;
  }
  [[nodiscard]] obs::DriftDetector& drift() noexcept { return drift_; }
  [[nodiscard]] obs::SelectorLog& selector() noexcept { return selector_; }
  [[nodiscard]] sim::Machine::Engine engine() const noexcept {
    return engine_;
  }
  /// The run identity (fleet workers ship it in their result message).
  [[nodiscard]] const obs::RunInfo& info() const noexcept { return info_; }

  /// Writes the requested artifacts and passes `rc` through.
  int finish(int rc = 0) {
    const auto& reg = obs::MetricsRegistry::global();
    if (!trace_path_.empty())
      obs::write_file(trace_path_, [&](std::ostream& os) {
        tracer_->write_chrome_json(os);
      });
    if (!report_path_.empty())
      obs::write_file(report_path_, [&](std::ostream& os) {
        obs::write_report_json(os, info_, reg, tracer_.get(), &attribution_,
                               &drift_, &selector_);
      });
    if (!report_csv_path_.empty())
      obs::write_file(report_csv_path_, [&](std::ostream& os) {
        obs::write_report_csv(os, info_, reg, tracer_.get(), &attribution_,
                              &drift_, &selector_);
      });
    if (!metrics_path_.empty())
      obs::write_file(metrics_path_, [&](std::ostream& os) {
        reg.write_json(os, /*include_host=*/true);
      });
    return rc;
  }

 private:
  obs::RunInfo info_;
  std::string trace_path_;
  std::string report_path_;
  std::string report_csv_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* flight_tracer_ = nullptr;
  obs::AttributionAggregate attribution_;
  obs::DriftDetector drift_;
  obs::SelectorLog selector_;
  sim::Machine::Engine engine_ = sim::Machine::Engine::kAuto;
};

/// Emits the table as ASCII or CSV per the --csv flag.
inline void emit(const util::Cli& cli, const util::Table& table) {
  if (cli.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n";
}

/// Machine selection: --machine=j90 (default) | c90 | tera, or any full
/// sim::MachineConfig::parse spec ("j90,cache=1024,cache-write=back").
/// The three bare preset names short-circuit so their banner identity
/// ("cray-j90", not the spec string parse() would stamp) is unchanged.
inline sim::MachineConfig machine_from_cli(const util::Cli& cli) {
  const std::string name = cli.get("machine", "j90");
  if (name == "j90") return sim::MachineConfig::cray_j90();
  if (name == "c90") return sim::MachineConfig::cray_c90();
  if (name == "tera") return sim::MachineConfig::tera_like();
  return sim::MachineConfig::parse(name);
}

/// Builds SweepOptions from the shared resilience flags.
inline resilience::SweepOptions sweep_options_from_cli(const util::Cli& cli) {
  resilience::SweepOptions opt;
  opt.checkpoint_path = cli.get("checkpoint", "");
  opt.resume_path = cli.get("resume", "");
  opt.deadline_seconds = cli.get_double("deadline", 0.0);
  opt.stall_seconds = cli.get_double("stall-timeout", 0.0);
  opt.checkpoint_every = cli.get_uint("checkpoint-every", 1);
  opt.threads = cli.get_uint("threads", 0);
  return opt;
}

/// Handles a sweep's outcome: 0 when complete; otherwise prints the
/// structured Interrupted record and returns 75 (EX_TEMPFAIL) so callers
/// know the run is resumable, not failed.
inline int finish_sweep(const resilience::SweepReport& report) {
  if (report.ok()) return 0;
  std::cout << "INTERRUPTED cause=" << resilience::cancel_cause_name(
                                           report.cause)
            << " completed=" << report.completed << "/" << report.total
            << " resumed=" << report.resumed;
  if (!report.checkpoint.empty())
    std::cout << " checkpoint=" << report.checkpoint;
  std::cout << "\n"
            << "resume with --resume=" +
                   (report.checkpoint.empty() ? std::string("<checkpoint>")
                                              : report.checkpoint)
            << "\n";
  return exit_code(ErrorCode::kInterrupted);
}

/// Applies the shard execution modes to a sweep about to run, returning
/// the (possibly shard-scoped) sweep id:
///   --svc-lease=FILE  fleet worker — follow the coordinator's lease
///                     (slices keys, rewires opt, arms partial-result
///                     publication; docs/resilience.md §fleet mode);
///   --shard=i/S       standalone shard run — same slice and scoped
///                     sweep id, no coordinator (the poisoned-shard
///                     repro path).
/// After runner.run(), worker-mode benches must return through
/// `worker.finish(report, obs.info())` instead of printing tables.
inline std::uint64_t apply_sharding(svc::WorkerContext& worker,
                                    const util::Cli& cli, std::uint64_t id,
                                    std::vector<std::uint64_t>& keys,
                                    resilience::SweepOptions& opt, Obs& obs) {
  const std::string lease = cli.get("svc-lease", "");
  if (!lease.empty()) {
    worker.init(lease);
    // Flight-tail source: an explicit --trace tracer when present,
    // otherwise the worker's own small ring via attach().
    if (obs.tracer() != nullptr) {
      worker.set_trace_source(obs.tracer());
    } else {
      obs.set_flight_tracer(worker.flight_tracer());
    }
    return worker.prepare(id, keys, opt, &obs.attribution(), &obs.drift(),
                          &obs.selector());
  }
  const std::string shard = cli.get("shard", "");
  if (!shard.empty()) {
    const auto spec = resilience::ShardSpec::parse(shard);
    keys = spec.slice(keys);
    return resilience::shard_sweep_id(id, spec);
  }
  return id;
}

/// Wraps a bench's main body: dxbsp::Error maps to its structured exit
/// code with a one-line diagnostic instead of std::terminate noise.
template <typename F>
int guarded(F&& body) {
  try {
    return body();
  } catch (const dxbsp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code(e.code());
  }
}

}  // namespace dxbsp::bench
