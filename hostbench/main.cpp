// Host-time benchmark of the (d,x)-BSP reproduction.
//
//   hostbench --workload W --seed N --seconds T --trace 0|1
//             --out-dir DIR [--golden FILE]
//
// Runs closed-loop passes of a workload for T seconds on one thread, and
// sets the workload up (inputs plus one warm-up pass) kSetupReps times:
// once before the first pass and then at even intervals between passes.
// With --trace 0 it reports the end-to-end metrics of untraced passes:
// the fastest pass, as bench_perf_hotpath reports its best repetition,
// and the median setup. With --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics
// of the traced ones, computed from spans the benchmark records around
// each call into the library. Every pass is checked; the last stdout line
// is the JSON result {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace hostbench;

constexpr std::uint64_t kGoldenSeed = 1995;
constexpr std::size_t kSetupReps = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string golden;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
    } else if (key == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0|1");
      a.trace = v == "1";
    } else if (key == "--out-dir") {
      a.out_dir = v;
    } else if (key == "--golden") {
      a.golden = v;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.out_dir.empty() || a.seconds <= 0.0)
    throw std::invalid_argument("need --workload, --out-dir and --seconds > 0");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

/// Host identity: results from different fingerprints are never compared.
std::string fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
#ifdef DXBSP_SIMD
  const int simd = 1;
#else
  const int simd = 0;
#endif
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu)
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << HOSTBENCH_COMPILER << "\", \"build_type\": \""
     << HOSTBENCH_BUILD_TYPE << "\", \"DXBSP_SIMD\": " << simd
     << ", \"DXBSP_OBS_TRACE\": " << (dxbsp::obs::kTraceCompiledIn ? 1 : 0)
     << "}";
  return os.str();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// RMS of (predicted / simulated - 1) over the model points.
double rms_rel_err(const std::vector<std::pair<double, double>>& pts) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [pred, meas] : pts) {
    if (meas <= 0.0) continue;
    const double e = pred / meas - 1.0;
    sum += e * e;
    ++n;
  }
  return n == 0 ? 0.0 : std::sqrt(sum / static_cast<double>(n));
}

/// Golden digest of `workload` from a file of "workload hexdigest" lines.
std::string golden_digest(const std::string& path, const std::string& wl) {
  std::ifstream in(path);
  std::string name, hex;
  while (in >> name >> hex)
    if (name == wl) return hex;
  return "";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;
  PassResult result;
};

/// Per-layer metrics of the traced passes (and the traced setups).
std::vector<Metric> per_layer(const std::vector<PassRecord>& passes,
                              const SpanLog& pass_log,
                              const SpanLog& setup_log,
                              const std::map<std::string, double>& setup_counts,
                              Checks& out) {
  std::vector<double> traced_walls, untraced_walls;
  std::map<std::string, double> counts;
  for (const auto& p : passes) {
    (p.traced ? traced_walls : untraced_walls).push_back(p.wall_s);
    if (!p.traced) continue;
    for (const auto& [k, v] : p.result.counts) counts[k] += v;
  }
  const double n = static_cast<double>(traced_walls.size());
  for (auto& [k, v] : counts) v /= n;
  for (const auto& [k, v] : setup_counts) counts[k] += v;
  const auto cnt = [&](const std::string& k) {
    const auto it = counts.find(k);
    return it == counts.end() ? 0.0 : it->second;
  };

  const SelfTimes st = self_times(pass_log.spans(), "bench.pass");
  const SelfTimes setup = self_times(setup_log.spans(), "bench.setup");
  // The identity the traced run promises: layer self times plus the
  // uncovered remainder are the traced wall time. The wall time comes from
  // the pass clock in run(), read outside the spans, so this holds only if
  // the spans cover each pass; the slack is the span bookkeeping at the
  // edges of a pass.
  double traced_wall_s = 0.0;
  for (const double w : traced_walls) traced_wall_s += w;
  const double covered_s =
      static_cast<double>(st.layer_self_ns + st.uncovered_ns) / 1e9;
  const double slack_s = 1e-3 * traced_wall_s + 20e-6 * n;
  out.check(st.root_ns > 0 && std::abs(covered_s - traced_wall_s) <= slack_s,
            "span self times " + std::to_string(covered_s) +
                " s do not add up to the traced wall time " +
                std::to_string(traced_wall_s) + " s");
  const auto self_s = [&](const SelfTimes& t, const std::string& name) {
    const auto it = t.self_ns.find(name);
    return it == t.self_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e9;
  };
  const auto layer_s = [&](const std::string& layer) {
    double s = 0.0;
    for (const auto& [name, ns] : st.self_ns)
      if (layer_of(name) == layer) s += static_cast<double>(ns) / 1e9;
    return s / n;
  };

  std::vector<Metric> m;
  const double gen_s = self_s(st, "workload.gen") / n +
                       self_s(setup, "workload.gen") /
                           static_cast<double>(kSetupReps);
  m.push_back({"workload.gen_s", gen_s, "s"});
  m.push_back({"workload.elements", cnt("workload.elements"), "count"});
  m.push_back({"workload.ns_per_element",
               ratio(gen_s * 1e9, cnt("workload.elements")), "ns"});

  const double predict_s = self_s(st, "core.predict") / n;
  m.push_back({"core.predict_s", predict_s, "s"});
  m.push_back({"core.predict_calls", cnt("core.predict_calls"), "count"});
  m.push_back({"core.ns_per_element",
               ratio(predict_s * 1e9, cnt("core.elements")), "ns"});

  const double sim_s = layer_s("sim");
  m.push_back({"sim.run_s", sim_s, "s"});
  m.push_back({"sim.requests", cnt("sim.requests"), "count"});
  m.push_back({"sim.retries", cnt("sim.retries"), "count"});
  m.push_back({"sim.ns_per_request", ratio(sim_s * 1e9, cnt("sim.requests")),
               "ns"});
  for (const char* cls :
       {"uniform", "hot_tight_window", "combining_multihot", "cached_stride",
        "faulty_drop_retry", "cache_tier_zipf"}) {
    const std::string span = std::string("sim.") + cls;
    m.push_back({span + ".ns_per_request",
                 ratio(self_s(st, span) / n * 1e9, cnt(span + ".requests")),
                 "ns"});
  }
  for (const char* choice : {"reference", "calendar", "dense", "heap", "soa"}) {
    const std::string k = std::string("sim.engine_ops.") + choice;
    m.push_back({k, cnt(k), "count"});
  }

  for (const char* k : {"cache.hits", "cache.misses", "fault.nacks",
                        "fault.degraded_cycles"})
    m.push_back({k, cnt(k), "count"});

  m.push_back({"stats.entropy_s", self_s(st, "stats.entropy") / n, "s"});

  for (const char* alg : {"radix_sort", "spmv", "connected_components",
                          "random_permutation"})
    m.push_back({std::string("algos.") + alg + "_s",
                 self_s(st, std::string("algos.") + alg) / n, "s"});
  m.push_back({"algos.irregular_ops", cnt("algos.irregular_ops"), "count"});
  m.push_back({"algos.elements", cnt("algos.elements"), "count"});

  m.push_back({"obs.trace_events", cnt("obs.trace_events"), "count"});
  m.push_back({"obs.trace_write_s", self_s(st, "obs.trace_write") / n, "s"});
  m.push_back({"obs.bytes_per_event",
               ratio(cnt("obs.trace_bytes"), cnt("obs.trace_events_written")),
               "bytes"});
  m.push_back({"obs.report_write_s", self_s(st, "obs.report_write") / n, "s"});
  m.push_back({"obs.selector_rows", cnt("obs.selector_rows"), "count"});

  m.push_back({"resilience.self_s", self_s(st, "resilience.sweep") / n, "s"});

  m.push_back({"stream.run_s", self_s(st, "stream.run") / n, "s"});
  m.push_back({"stream.spilled_bytes", cnt("stream.spilled_bytes"), "bytes"});
  for (const char* k : {"stream.spill_chunks", "stream.back_pressure_events"})
    m.push_back({k, cnt(k), "count"});

  m.push_back({"trace.wall_s", traced_wall_s / n, "s"});
  m.push_back({"trace.uncovered_s",
               static_cast<double>(st.uncovered_ns) / 1e9 / n, "s"});
  m.push_back({"trace.overhead_s",
               median(traced_walls) - median(untraced_walls), "s"});

  // The breakdown behind the identity, per traced pass.
  std::cout << "span self time per traced pass (" << traced_walls.size()
            << " passes):\n";
  for (const auto& [name, ns] : st.self_ns)
    std::cout << "  " << name << " " << static_cast<double>(ns) / 1e9 / n
              << " s\n";
  std::cout << "  layer spans " << static_cast<double>(st.layer_self_ns) / 1e9 / n
            << " s + uncovered "
            << static_cast<double>(st.uncovered_ns) / 1e9 / n
            << " s = " << covered_s / n << " s; pass clock " << traced_wall_s / n
            << " s\n";
  return m;
}

int run(const Args& a) {
  const std::string fp = fingerprint();
  std::cout << "hostbench workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << "\nfingerprint " << fp << "\n";

  auto wl = make_workload(a.workload, a.seed);
  SpanLog setup_log, pass_log;
  Ctx ctx;
  ctx.out_dir = a.out_dir;

  // Setup: inputs plus one warm-up pass. Spreading the repetitions over
  // the run makes their median sample the host's speed across the run,
  // not only in its first second.
  std::vector<double> setup_walls;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    ctx.log = a.trace ? &setup_log : nullptr;
    {
      Scope s(ctx.log, "bench.setup");
      wl->setup(ctx);
    }
    ctx.log = nullptr;
    (void)wl->pass(ctx);
    setup_walls.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  set_up();
  wl->prepare_checks();

  // Timed phase: closed-loop passes until the time is up.
  std::vector<PassRecord> passes;
  const auto length = static_cast<std::int64_t>(a.seconds * 1e9);
  const std::int64_t start = now_ns();
  while (now_ns() < start + length || passes.size() < (a.trace ? 4u : 3u)) {
    const auto due = static_cast<std::int64_t>(setup_walls.size()) * length /
                     static_cast<std::int64_t>(kSetupReps);
    if (setup_walls.size() < kSetupReps && now_ns() >= start + due) {
      set_up();
      continue;
    }
    PassRecord rec;
    rec.traced = a.trace && passes.size() % 2 == 1;
    ctx.op = static_cast<std::uint32_t>(passes.size());
    ctx.log = rec.traced ? &pass_log : nullptr;
    const std::int64_t t0 = now_ns();
    {
      Scope s(ctx.log, "bench.pass", ctx.op);
      rec.result = wl->pass(ctx);
    }
    rec.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    passes.push_back(std::move(rec));
  }
  while (setup_walls.size() < kSetupReps) set_up();

  // Correctness: semantic checks of every pass, one digest for all passes,
  // and the stored golden digest on the golden seed.
  Checks out;
  const std::uint64_t digest = passes.front().result.digest;
  for (const auto& p : passes) {
    out.attempted += p.result.checks.attempted;
    out.failures.insert(out.failures.end(), p.result.checks.failures.begin(),
                        p.result.checks.failures.end());
    out.check(p.result.digest == digest,
              "pass digest differs from the first pass");
  }
  std::cout << "digest " << hex(digest) << "\n";
  if (a.seed == kGoldenSeed && !a.golden.empty()) {
    const std::string want = golden_digest(a.golden, a.workload);
    out.check(want == hex(digest),
              "digest " + hex(digest) + " differs from golden '" + want + "'");
  }
  auto model = passes.front().result.model;
  for (const auto& pt : wl->model_outside()) model.push_back(pt);
  const double model_err = rms_rel_err(model);
  out.check(!model.empty() && std::isfinite(model_err),
            "no finite model error");

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = per_layer(passes, pass_log, setup_log, wl->setup_counts(), out);
    metrics.push_back({"core.model_rms_rel_err", model_err, "ratio"});
  } else {
    std::vector<double> walls, rates, written;
    for (const auto& p : passes) {
      walls.push_back(p.wall_s);
      rates.push_back(static_cast<double>(p.result.requests) / p.wall_s);
      written.push_back(static_cast<double>(p.result.written_bytes) /
                        (1024.0 * 1024.0));
    }
    metrics = {
        {"wall_s", *std::min_element(walls.begin(), walls.end()), "s"},
        {"requests_per_s", *std::max_element(rates.begin(), rates.end()),
         "1/s"},
        {"setup_s", median(setup_walls), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"written_mb", median(written), "MiB"},
    };
  }

  const std::uint64_t failed = out.failures.size();
  for (const auto& f : out.failures) std::cout << "FAILED: " << f << "\n";
  std::cout << "passes " << passes.size() << " wall_s";
  for (const auto& p : passes) std::cout << " " << p.wall_s;
  std::cout << "\nsetups " << setup_walls.size() << " wall_s";
  for (const double w : setup_walls) std::cout << " " << w;
  std::cout << "\n";
  for (const auto& m : metrics)
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit
              << "\n";
  std::cout << "model_rms_rel_err " << model_err << "\n";
  std::cout << "failed_ratio " << ratio(static_cast<double>(failed),
                                        static_cast<double>(out.attempted))
            << " (" << failed << "/" << out.attempted << " checks)\n";

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 2;
  }
}
