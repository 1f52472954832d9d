#pragma once
// Shared helpers for the figure-reproduction benches: machine construction,
// paper-style table output, and the common command-line flags.  Every bench
// prints the series the paper plots; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Flags (parsed by bench::parse_args from one option table, accepted by every
// figure binary):
//   --smoke        shrink PE series / step counts to a CI-sized sanity run
//   --trace=FILE   attach a tracer to each simulated machine and write the
//                  LAST traced run as Chrome trace_event JSON to FILE
//                  (open in chrome://tracing or ui.perfetto.dev)
//   --stats=FILE   write machine-readable analytics JSON (schema
//                  "charmlike-stats", DESIGN.md §6): the printed series plus
//                  usage profile, comm matrix, imbalance, and critical path
//                  of the LAST traced run.  CI emits BENCH_<fig>.json this
//                  way; inspect/diff with tools/statsview.
//   --metrics[=SEC] attach the live introspection monitor (DESIGN.md §11) to
//                  each machine, sampling every SEC virtual seconds (default
//                  1e-3).  Adds "metrics_interval"/"timeseries"/"journal"
//                  sections to the stats JSON; never perturbs virtual time,
//                  so the figure series are unchanged.
//
// A bench adds its own flags as parse_args' `extra` table; fault_flags() is
// the one shared by fault-tolerant benches (fig10_leanmd_ckpt):
//   --mtbf=SEC     inject PE failures with the given mean time between
//                  failures, in virtual seconds
//   --failures=N   cap the number of injected failures (default 1)
//   --fault-seed=N seed for the failure schedule / victim draws (default 1)

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "introspect/metrics.hpp"
#include "runtime/charm.hpp"
#include "stats/chrome_export.hpp"
#include "stats/json_export.hpp"
#include "stats/report.hpp"
#include "trace/trace.hpp"

namespace bench {

inline sim::MachineConfig machine_config(int npes,
                                         sim::NetworkParams net = sim::NetworkParams::bluegene_q()) {
  sim::MachineConfig cfg;
  cfg.npes = npes;
  cfg.net = net;
  return cfg;
}

// ---- common flags ------------------------------------------------------------

struct Options {
  bool smoke = false;       ///< tiny PE counts / few steps (CI sanity mode)
  std::string trace_file;   ///< Chrome trace_event output ("" = tracing off)
  std::string stats_file;   ///< analytics JSON output ("" = stats off)
  bool metrics = false;     ///< attach the live introspection monitor
  double metrics_interval = 1e-3;  ///< sampling cadence in virtual seconds

  std::string bench_name;   ///< basename of argv[0], stamped into stats JSON
  int traced_npes = 0;      ///< PE count of the last machine given the tracer
};

inline Options& options() {
  static Options o;
  return o;
}

/// Captured copy of everything the bench printed (title/columns/rows/notes),
/// exported verbatim into the stats JSON as the figure's series.
struct Series {
  std::vector<stats::SeriesTable> tables;
  std::vector<std::string> notes;
  std::string pending_title;
};

inline Series& series() {
  static Series s;
  return s;
}

/// Overhead-surface cells accumulated by the taskbench driver; exported as
/// the stats JSON's "taskbench" section when non-empty.
inline std::vector<stats::TaskbenchCell>& taskbench_cells() {
  static std::vector<stats::TaskbenchCell> cells;
  return cells;
}

/// Collective-tree sweep cells accumulated by the collectives driver;
/// exported as the stats JSON's "collectives" section when non-empty.
inline std::vector<stats::CollectivesCell>& collectives_cells() {
  static std::vector<stats::CollectivesCell> cells;
  return cells;
}

/// Strict numeric flag value: all of `v` must be one finite number >= lo.
/// Trailing characters ("2x", "2e-4ms"), non-numbers ("abc"), inf/nan and
/// values that overflow T are rejected; `*out` is written only on success.
template <typename T>
bool parse_number(const char* v, T* out, T lo = std::numeric_limits<T>::lowest()) {
  const char* end = v + std::strlen(v);
  T x{};
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(x)) return false;
  }
  if (x < lo) return false;
  *out = x;
  return true;
}

/// parse_number restricted to values > 0.
template <typename T>
bool parse_positive(const char* v, T* out) {
  constexpr T kSmallest =
      std::is_floating_point_v<T> ? std::numeric_limits<T>::denorm_min() : T{1};
  return parse_number(v, out, kSmallest);
}

namespace detail {

/// One row of the option table.  `arg` == nullptr marks a boolean flag;
/// otherwise the flag is `--name=ARG` and `parse` gets the value (returning
/// false to reject it with `error`).  `optional_value` additionally accepts
/// the bare `--name` form, passing nullptr to `parse` (aggregate init leaves
/// it false for four-field tables, so existing extra-flag tables are fine).
struct FlagSpec {
  const char* name;
  const char* arg;
  const char* error;
  bool (*parse)(const char* value);
  bool optional_value = false;
};

inline const FlagSpec* flag_table(std::size_t* count) {
  static const FlagSpec kFlags[] = {
      {"--smoke", nullptr, nullptr,
       [](const char*) {
         options().smoke = true;
         return true;
       }},
      {"--trace", "FILE", nullptr,
       [](const char* v) {
         options().trace_file = v;
         return true;
       }},
      {"--stats", "FILE", nullptr,
       [](const char* v) {
         options().stats_file = v;
         return true;
       }},
      {"--metrics", "SEC", "needs a positive interval in virtual seconds",
       [](const char* v) {
         options().metrics = true;
         return v == nullptr || parse_positive(v, &options().metrics_interval);
       },
       /*optional_value=*/true},
  };
  *count = sizeof(kFlags) / sizeof(kFlags[0]);
  return kFlags;
}

inline std::string flag_usage() {
  std::size_t n = 0;
  const FlagSpec* flags = flag_table(&n);
  std::string usage;
  for (std::size_t i = 0; i < n; ++i) {
    if (!usage.empty()) usage += ", ";
    usage += flags[i].name;
    if (flags[i].arg != nullptr) {
      if (flags[i].optional_value) {
        usage += "[=";
        usage += flags[i].arg;
        usage += "]";
      } else {
        usage += "=";
        usage += flags[i].arg;
      }
    }
  }
  return usage;
}

}  // namespace detail

/// Failure-injection settings, set only by the fault_flags() table.
struct FaultOptions {
  double mtbf = 0;               ///< >0: inject failures with this MTBF (virtual s)
  int failures = 1;              ///< failure budget when mtbf > 0
  std::uint64_t fault_seed = 1;  ///< failure schedule seed
};

inline FaultOptions& fault_options() {
  static FaultOptions o;
  return o;
}

/// The fault-injection flags, for parse_args' `extra` in the benches that
/// read fault_options().
inline const std::array<detail::FlagSpec, 3>& fault_flags() {
  static const std::array<detail::FlagSpec, 3> kFlags = {{
      {"--mtbf", "SEC", "needs a positive time in seconds",
       [](const char* v) { return parse_positive(v, &fault_options().mtbf); }},
      {"--failures", "N", "needs a positive count",
       [](const char* v) { return parse_positive(v, &fault_options().failures); }},
      {"--fault-seed", "N", nullptr,
       [](const char* v) { return parse_number(v, &fault_options().fault_seed); }},
  }};
  return kFlags;
}

/// Parses the common flags plus `extra` bench-specific ones; rejects anything
/// else (with the full flag list) so typos fail CI instead of being ignored.
inline int parse_args(int argc, char** argv, const detail::FlagSpec* extra = nullptr,
                      std::size_t nextra = 0) {
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    options().bench_name = slash != nullptr ? slash + 1 : argv[0];
  }
  std::size_t ncommon = 0;
  const detail::FlagSpec* common = detail::flag_table(&ncommon);
  std::vector<const detail::FlagSpec*> flags;
  flags.reserve(ncommon + nextra);
  for (std::size_t f = 0; f < ncommon; ++f) flags.push_back(&common[f]);
  for (std::size_t f = 0; f < nextra; ++f) flags.push_back(&extra[f]);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const detail::FlagSpec* match = nullptr;
    const char* value = nullptr;
    for (const detail::FlagSpec* spec : flags) {
      const std::size_t len = std::strlen(spec->name);
      if (spec->arg == nullptr) {
        if (std::strcmp(a, spec->name) == 0) {
          match = spec;
          break;
        }
      } else if (std::strncmp(a, spec->name, len) == 0 && a[len] == '=' &&
                 a[len + 1] != '\0') {
        match = spec;
        value = a + len + 1;
        break;
      } else if (spec->optional_value && std::strcmp(a, spec->name) == 0) {
        match = spec;  // bare `--name` form of an optional-value flag
        break;
      }
    }
    if (match == nullptr) {
      std::string usage = detail::flag_usage();
      for (std::size_t f = 0; f < nextra; ++f) {
        usage += ", ";
        usage += extra[f].name;
        if (extra[f].arg != nullptr) {
          usage += "=";
          usage += extra[f].arg;
        }
      }
      std::fprintf(stderr, "%s: unknown argument '%s' (expected %s)\n", argv[0], a,
                   usage.c_str());
      return 1;
    }
    if (!match->parse(value)) {
      std::fprintf(stderr, "%s: %s %s\n", argv[0], match->name,
                   match->error != nullptr ? match->error : "has an invalid value");
      return 1;
    }
  }
  return 0;
}

inline bool smoke() { return options().smoke; }

// ---- paper-style table output (captured for the stats JSON) ------------------

inline void header(const std::string& fig, const std::string& title) {
  std::printf("\n== %s: %s ==\n", fig.c_str(), title.c_str());
  series().pending_title = fig + ": " + title;
}

inline void columns(const std::vector<std::string>& names) {
  for (const auto& n : names) std::printf("%16s", n.c_str());
  std::printf("\n");
  stats::SeriesTable t;
  t.title = series().pending_title;
  t.columns = names;
  series().tables.push_back(std::move(t));
}

inline void row(const std::vector<double>& values) {
  for (double v : values) std::printf("%16.6g", v);
  std::printf("\n");
  if (series().tables.empty()) {
    stats::SeriesTable t;
    t.title = series().pending_title;
    series().tables.push_back(std::move(t));
  }
  series().tables.back().rows.push_back(values);
}

inline void note(const std::string& s) {
  std::printf("   %s\n", s.c_str());
  series().notes.push_back(s);
}

// ---- run checks --------------------------------------------------------------

/// Completion / validation checks that failed in this process, in order.
inline std::vector<std::string>& failed_checks() {
  static std::vector<std::string> failed;
  return failed;
}

/// Records a completion or validation check (e.g. "LeanMD run completed
/// (P=8)").  A failed one makes finish() name it on stderr and return 1, so
/// an incomplete run or a wrong answer fails the bench.
inline void check(bool ok, const std::string& what) {
  if (!ok) failed_checks().push_back(what);
}

/// Runs the machine to completion and returns the makespan in virtual seconds.
inline double run_to_completion(sim::Machine& m) {
  m.run();
  return m.max_pe_clock();
}

/// Full series normally; the first `smoke_keep` entries under --smoke.
inline std::vector<int> pe_series(std::vector<int> full, std::size_t smoke_keep = 2) {
  if (smoke() && full.size() > smoke_keep) full.resize(smoke_keep);
  return full;
}

/// Step/iteration count, capped under --smoke.
inline int cap_steps(int steps, int smoke_steps = 2) {
  return smoke() ? std::min(steps, smoke_steps) : steps;
}

// ---- tracing / stats ---------------------------------------------------------

/// The shared trace log (one per bench process; each traced machine resets
/// it, so the written files describe the last traced run).
inline trace::Tracer& shared_tracer() {
  static trace::Tracer t;
  return t;
}

/// The shared live-metrics monitor (one per bench process; each attach resets
/// it, so the exported timeline describes the last attached run — the same
/// machine the tracer describes).  Machine::~Machine clears the back-pointer,
/// so the static monitor outliving per-run machines is safe.
inline introspect::Monitor& shared_monitor() {
  static introspect::Monitor m;
  return m;
}

/// True when any tracer-backed output (--trace or --stats) was requested.
inline bool tracing_requested() {
  return !options().trace_file.empty() || !options().stats_file.empty();
}

/// Attaches the shared tracer (when --trace=FILE or --stats=FILE was given)
/// and the live monitor (when --metrics was given) to `m`.  Call right after
/// constructing each machine.
inline void attach_trace(sim::Machine& m) {
  if (tracing_requested()) {
    shared_tracer().clear();
    m.set_tracer(&shared_tracer());
    options().traced_npes = m.npes();
  }
  if (options().metrics) {
    shared_monitor().set_interval(options().metrics_interval);
    shared_monitor().attach(m);
  }
}

/// Labels entry spans with registered names (Registry::name_entry); the
/// exporters' stats::entry_label names the rest.
inline stats::EntryLabeler entry_labeler() {
  return [](int, int ep) { return charm::Registry::instance().entry_name(ep); };
}

/// A full sample buffer silently truncates the timeline written from it, so
/// overflow fails the run: prints what was dropped and the smallest multiple
/// of the interval that fits, and returns 1.
inline int check_drops() {
  const introspect::Monitor& mon = shared_monitor();
  if (mon.dropped_samples() == 0) return 0;
  // Boundaries crossed so far, plus one for the partial window at the end.
  const double boundaries =
      static_cast<double>(mon.samples().size() + mon.dropped_samples() + 1);
  const double fit =
      mon.interval() *
      std::ceil(boundaries / static_cast<double>(introspect::Monitor::kSampleCap));
  std::fprintf(stderr,
               "metrics: ERROR %llu samples dropped at the %zu-sample cap; the "
               "timeline stops at t=%g s of %g s; --metrics=%g fits\n",
               static_cast<unsigned long long>(mon.dropped_samples()),
               introspect::Monitor::kSampleCap, mon.samples().back().t, mon.time(), fit);
  return 1;
}

/// Writes the accumulated trace / stats outputs (if any) and returns the
/// process exit code: non-zero when the timeline is truncated (see check_drops)
/// or a check() failed.  Call as the last statement of main:
/// `return bench::finish();`
inline int finish() {
  const trace::Tracer& t = shared_tracer();
  if (!options().trace_file.empty()) {
    if (!stats::write_chrome_trace_file(t, options().trace_file, entry_labeler())) {
      std::fprintf(stderr, "failed to write trace to %s\n", options().trace_file.c_str());
      return 1;
    }
    std::printf("   trace: %zu events -> %s (open in chrome://tracing)\n", t.size(),
                options().trace_file.c_str());
  }
  if (!options().stats_file.empty()) {
    const stats::Report report = stats::collect(t, options().traced_npes);
    stats::ExportMeta meta;
    meta.bench = options().bench_name;
    meta.smoke = options().smoke;
    meta.series = series().tables;
    meta.notes = series().notes;
    meta.taskbench = taskbench_cells();
    meta.collectives = collectives_cells();
    if (options().metrics) {
      const introspect::Monitor& mon = shared_monitor();
      meta.metrics = &mon;
      std::printf("   metrics: %zu samples, %zu journal events (interval %g s)\n",
                  mon.samples().size(), mon.journal_events().size(), mon.interval());
    }
    meta.label = entry_labeler();
    if (!stats::write_json_file(report, meta, options().stats_file)) {
      std::fprintf(stderr, "failed to write stats to %s\n", options().stats_file.c_str());
      return 1;
    }
    std::printf("   stats: %d PEs, %zu entry rows, %zu comm cells -> %s\n",
                report.npes, report.entries.size(), report.comm.size(),
                options().stats_file.c_str());
  }
  int rc = check_drops();
  for (const std::string& what : failed_checks()) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    rc = 1;
  }
  return rc;
}

/// Prints a Fig 11-style per-interval utilization profile of the last traced
/// run: busy / overhead / idle fractions per bin, averaged over PEs.
inline void print_time_profile(int npes, int nbins) {
  if (options().trace_file.empty()) return;
  const stats::TimeProfile p = stats::time_profile(shared_tracer().events(), npes, nbins);
  std::printf("   time profile (%d bins of %.3g ms, mean over %d PEs):\n", p.nbins,
              p.bin_width * 1e3, p.npes);
  std::printf("%16s%16s%16s%16s%16s\n", "bin_start_ms", "busy", "overhead", "idle", "sum");
  for (int b = 0; b < p.nbins; ++b) {
    const stats::ProfileBin& bin = p.mean[static_cast<std::size_t>(b)];
    std::printf("%16.4f%16.4f%16.4f%16.4f%16.4f\n", (p.t0 + b * p.bin_width) * 1e3,
                bin.busy, bin.overhead, bin.idle, bin.busy + bin.overhead + bin.idle);
  }
}

}  // namespace bench
