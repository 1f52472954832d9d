// perfbench: one repetition of one host-performance workload per process.
//
// The program measures the library from outside: it times the public calls it
// makes into sim, runtime, lb, ft, tram and the miniapps, and adds no code to
// the library.  A traced repetition drives sim::Machine::step() itself, times
// every call, and classifies each step with a trace::Tracer that is cleared
// after the step (memory stays bounded):
//   * no exec span                -> network arrival (sim)
//   * exec span, no entry span    -> runtime control (QD, collective legs,
//                                    on_pe handlers)
//   * entry spans                 -> the entries, split evenly per span;
//                                    id -1 marks a runtime-applied function
//                                    (resume_from_sync after an LB round)
//
// Every repetition checks its own output (completion, residue, a
// workload-specific answer check and the virtual-time digest) and exits
// non-zero when a check fails.  The last stdout line is
//   PERFBENCH {"workload":..., "ok":..., "failures":[...], "digest":...,
//              "metrics":{name:{"value":v,"unit":u}, ...}}
// which perfbench/run.py aggregates over repetitions.
//
// Usage: perfbench --workload=phold|phold_tram|leanmd|stencil_wide
//                  [--seed=N] [--trace] [--expect-digest=HEX]
//                  [--inject=withhold-completion|leftover-outstanding]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "ft/mem_checkpoint.hpp"
#include "lb/manager.hpp"
#include "lb/strategy.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "miniapps/pdes/pdes.hpp"
#include "runtime/charm.hpp"
#include "sim/rng.hpp"
#include "trace/trace.hpp"
#include "tram/tram.hpp"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define PERFBENCH_UNFIT_BUILD 1
#else
#define PERFBENCH_UNFIT_BUILD 0
#endif

namespace {

using charm::ArrayProxy;
using charm::Callback;
using charm::ReductionResult;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string expect_digest;
  std::string inject;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (a == "--trace") {
      o.traced = true;
    } else if (const char* v = value("--expect-digest=")) {
      o.expect_digest = v;
    } else if (const char* v = value("--inject=")) {
      o.inject = v;
      if (o.inject != "withhold-completion" && o.inject != "leftover-outstanding")
        return false;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

// ---- results ---------------------------------------------------------------

/// FNV-1a over 64-bit words: the virtual-time digest of one run.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t w = 0;
    std::memcpy(&w, &d, sizeof w);
    add(w);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one repetition reports: metrics, failed checks, digest.
class Report {
 public:
  explicit Report(const Options& o) : opt_(o) {}

  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  Digest& digest() { return digest_; }

  /// Prints the human-readable block and the machine-readable last line;
  /// returns the process exit code.
  int emit() {
    if (!opt_.expect_digest.empty())
      check(digest_.hex() == opt_.expect_digest,
            "virtual-time digest " + digest_.hex() + " != reference " +
                opt_.expect_digest);
    std::printf("perfbench %s seed=%llu %s digest=%s\n", opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed),
                opt_.traced ? "traced" : "untraced", digest_.hex().c_str());
    for (const Metric& m : metrics_)
      std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& f : failures_) std::printf("  FAILED: %s\n", f.c_str());
    std::printf("PERFBENCH {\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
                "\"ok\":%s,\"digest\":\"%s\",\"failures\":[",
                opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
                opt_.traced ? "true" : "false", failures_.empty() ? "true" : "false",
                digest_.hex().c_str());
    for (std::size_t i = 0; i < failures_.size(); ++i)
      std::printf("%s\"%s\"", i ? "," : "", escaped(failures_[i]).c_str());
    std::printf("],\"metrics\":{");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    return failures_.empty() ? 0 : 1;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  const Options& opt_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  Digest digest_;
};

// ---- entry naming and step attribution --------------------------------------

/// Entries the traced run charges by name; every workload reports all of them
/// (0 where a workload does not run the entry) so the metric set is fixed.
struct NamedEntry {
  const char* metric = nullptr;  ///< metric-name form (no ':'), "Class.method"
  charm::EntryId id = -1;
};

/// Filled by name_entries() before any workload is built, so entry ids are
/// the same in traced and untraced repetitions.
std::vector<NamedEntry> g_entries;

/// Host-time attribution of a traced run, built one Machine::step() at a time.
class StepProfile {
 public:
  explicit StepProfile(std::vector<NamedEntry> entries) : entries_(std::move(entries)) {
    entry_s_.assign(entries_.size(), 0.0);
  }

  void drive(sim::Machine& m) {
    trace::Tracer tracer(1 << 12);
    m.set_tracer(&tracer);
    for (;;) {
      const Clock::time_point a = Clock::now();
      const bool more = m.step();
      const Clock::time_point b = Clock::now();
      if (!more) break;
      const std::int64_t ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
      classify(tracer, ns);
      tracer.clear();
    }
    m.set_tracer(nullptr);
  }

  void report(Report& r) const {
    const double total = arrive_s_ + runtime_s_ + apply_s_ + other_entry_s_ + sum(entry_s_);
    r.add("step.total_s", total, "s");
    r.add("step.arrive_s", arrive_s_, "s");
    r.add("step.runtime_s", runtime_s_, "s");
    for (std::size_t i = 0; i < entries_.size(); ++i)
      r.add(std::string("step.entry_s.") + entries_[i].metric, entry_s_[i], "s");
    r.add("step.entry_s.apply", apply_s_, "s");
    r.add("step.entry_s.other", other_entry_s_, "s");
    r.add("step.samples", static_cast<double>(samples_), "count");
    r.add("step.ns_p50", percentile(0.50), "ns");
    r.add("step.ns_p99", percentile(0.99), "ns");
    r.add("step.ns_p999", percentile(0.999), "ns");
  }

 private:
  static double sum(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  }

  void classify(const trace::Tracer& t, std::int64_t ns) {
    record_ns(ns);
    const double s = static_cast<double>(ns) * 1e-9;
    bool exec = false;
    std::size_t entries = 0;
    for (const trace::Event& e : t.events()) {
      if (e.kind == trace::Kind::kExec) exec = true;
      if (e.kind == trace::Kind::kEntry) ++entries;
    }
    if (!exec) {
      arrive_s_ += s;
      return;
    }
    if (entries == 0) {
      runtime_s_ += s;
      return;
    }
    const double share = s / static_cast<double>(entries);
    for (const trace::Event& e : t.events()) {
      if (e.kind != trace::Kind::kEntry) continue;
      std::size_t i = 0;
      while (i < entries_.size() && entries_[i].id != e.b) ++i;
      if (i < entries_.size()) {
        entry_s_[i] += share;
      } else if (e.b < 0) {
        apply_s_ += share;
      } else {
        other_entry_s_ += share;
      }
    }
  }

  /// Exact histogram: 1-ns buckets below 1 ms, raw values above (rare).
  void record_ns(std::int64_t ns) {
    ++samples_;
    if (ns < 0) ns = 0;
    if (ns < kFineNs) {
      ++fine_[static_cast<std::size_t>(ns)];
    } else {
      coarse_.push_back(ns);
    }
  }

  double percentile(double q) const {
    if (samples_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < fine_.size(); ++i) {
      seen += fine_[i];
      if (seen >= rank) return static_cast<double>(i);
    }
    std::vector<std::int64_t> rest = coarse_;
    std::sort(rest.begin(), rest.end());
    const std::size_t k = static_cast<std::size_t>(rank - seen - 1);
    return static_cast<double>(rest[std::min(k, rest.size() - 1)]);
  }

  static constexpr std::int64_t kFineNs = 1'000'000;

  std::vector<NamedEntry> entries_;
  std::vector<double> entry_s_;
  double arrive_s_ = 0;
  double runtime_s_ = 0;
  double apply_s_ = 0;  ///< runtime-applied functions (resume_from_sync)
  double other_entry_s_ = 0;
  std::uint64_t samples_ = 0;
  std::vector<std::uint64_t> fine_ = std::vector<std::uint64_t>(kFineNs, 0);
  std::vector<std::int64_t> coarse_;
};

// ---- the shared harness ------------------------------------------------------

long peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

/// Set-up and run timing plus the checks and counters every workload shares.
class Harness {
 public:
  Harness(const Options& o, Report& r) : opt_(o), rep_(r) {}

  // Set-up phases, in order: Machine, Runtime, application.
  void begin_setup() { t0_ = Clock::now(); }
  void machine_built() { t_machine_ = Clock::now(); }
  void runtime_built() { t_runtime_ = Clock::now(); }
  void app_built() { t_app_ = Clock::now(); }

  /// Runs the machine until it drains (traced: one timed step at a time).
  void run(sim::Machine& m) {
    if (opt_.traced) profile_.emplace(g_entries);
    const Clock::time_point t = Clock::now();
    if (profile_) {
      profile_->drive(m);
    } else {
      m.run();
    }
    run_s_ = seconds_since(t);
  }

  /// Common checks, counters and digest fields; `checksum` is the
  /// workload's answer, folded into the digest.
  void finish(sim::Machine& m, charm::Runtime& rt, bool completed, double checksum) {
    rep_.check(completed, "completion callback did not fire");
    rep_.check(rt.outstanding() == 0,
               "runtime.outstanding() == " + std::to_string(rt.outstanding()) +
                   " after the drain");
    rep_.check(m.pending_events() == 0,
               "machine.pending_events() == " + std::to_string(m.pending_events()) +
                   " after the drain");

    Digest& d = rep_.digest();
    d.add(static_cast<std::uint64_t>(m.events_processed()));
    d.add(static_cast<std::uint64_t>(rt.messages_sent()));
    d.add(m.max_pe_clock());
    d.add(checksum);

    auto secs = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    rep_.add("run_s", run_s_, "s");
    rep_.add("setup_s", secs(t0_, t_app_), "s");
    rep_.add("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MiB");
    rep_.add("setup.machine_s", secs(t0_, t_machine_), "s");
    rep_.add("setup.runtime_s", secs(t_machine_, t_runtime_), "s");
    rep_.add("setup.app_s", secs(t_runtime_, t_app_), "s");

    const double events = static_cast<double>(m.events_processed());
    rep_.add("sim.events", events, "count");
    rep_.add("sim.ns_per_event", events > 0 ? run_s_ * 1e9 / events : 0, "ns");
    rep_.add("sim.touched_pes", static_cast<double>(m.touched_pes()), "count");
    const charm::Runtime::MemoryFootprint f = rt.memory_footprint();
    rep_.add("sim.pe_state_mb", static_cast<double>(f.pe_state_bytes) / kMiB, "MiB");
    rep_.add("sim.event_queue_mb", static_cast<double>(f.event_queue_bytes) / kMiB, "MiB");
    rep_.add("runtime.collection_mb", static_cast<double>(f.collection_bytes) / kMiB, "MiB");
    rep_.add("runtime.msgs", static_cast<double>(rt.messages_sent()), "count");
    rep_.add("runtime.bytes", static_cast<double>(rt.bytes_sent()), "B");
    rep_.add("runtime.forwards", static_cast<double>(rt.forwards()), "count");
    add_pool("runtime.payload_pool", rt.payload_pool());
    add_pool("runtime.nums_pool", rt.nums_pool());
    if (profile_) profile_->report(rep_);
  }

 private:
  template <class Pool>
  void add_pool(const std::string& prefix, const Pool& p) {
    const double base = static_cast<double>(p.hits() + p.misses() + p.grows());
    rep_.add(prefix + "_hit_ratio", base > 0 ? static_cast<double>(p.hits()) / base : 0,
             "ratio");
    rep_.add(prefix + "_base", base, "count");
  }

  const Options& opt_;
  Report& rep_;
  Clock::time_point t0_, t_machine_, t_runtime_, t_app_;
  double run_s_ = 0;
  std::optional<StepProfile> profile_;
};

sim::MachineConfig machine_config(int npes) {
  sim::MachineConfig cfg;
  cfg.npes = npes;
  cfg.net = sim::NetworkParams::bluegene_q();
  cfg.pes_per_chip = 4;
  return cfg;
}

/// Layer counters a workload does not exercise read 0, so every repetition
/// reports the same metric set.
struct LayerCounters {
  double tram_items = 0, tram_batches = 0, tram_per_batch = 0, tram_bytes = 0;
  double lb_assign_ms = 0, lb_rounds = 0, lb_migrations = 0, lb_dirty_reads = 0;
  double ft_ckpt_ms = 0, ft_ckpt_mb = 0, ft_ckpts = 0;

  void report(Report& r) const {
    r.add("tram.items", tram_items, "count");
    r.add("tram.batches", tram_batches, "count");
    r.add("tram.items_per_batch", tram_per_batch, "ratio");
    r.add("tram.batch_bytes", tram_bytes, "B");
    r.add("lb.assign_ms", lb_assign_ms, "ms");
    r.add("lb.rounds", lb_rounds, "count");
    r.add("lb.migrations", lb_migrations, "count");
    r.add("lb.db_dirty_reads", lb_dirty_reads, "count");
    r.add("ft.ckpt_ms", ft_ckpt_ms, "ms");
    r.add("ft.ckpt_mb", ft_ckpt_mb, "MiB");
    r.add("ft.ckpts", ft_ckpts, "count");
  }
};

// ---- PHOLD (direct sends and TRAM) -----------------------------------------

/// Serial replay of PHOLD under YAWNS windows.  Within a window every
/// generated event lands at or beyond the horizon, so the executed count and
/// the window count do not depend on transport or delivery order: the
/// emulated run must reproduce them exactly.
std::pair<std::uint64_t, int> phold_serial(const charm::pdes::Params& p, double end_time) {
  using MinHeap = std::priority_queue<double, std::vector<double>, std::greater<>>;
  const auto n = static_cast<std::size_t>(p.nlps);
  std::vector<MinHeap> heaps(n);
  std::vector<sim::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rngs.emplace_back(sim::derive_seed(p.seed, i));
    for (int e = 0; e < p.initial_events_per_lp; ++e)
      heaps[i].push(rngs[i].next_exponential(p.mean_delay));
  }
  constexpr double kNoEvent = 1e30;  // pdes.cpp's "no pending event" sentinel
  std::uint64_t executed = 0;
  int windows = 0;
  std::vector<std::pair<std::size_t, double>> out;
  for (;;) {
    double gvt = kNoEvent;
    for (const MinHeap& h : heaps)
      if (!h.empty()) gvt = std::min(gvt, h.top());
    if (gvt >= end_time || gvt >= kNoEvent) break;
    ++windows;
    const double horizon = gvt + p.lookahead;
    out.clear();
    for (std::size_t i = 0; i < n; ++i) {
      while (!heaps[i].empty() && heaps[i].top() < horizon) {
        const double ts = heaps[i].top();
        heaps[i].pop();
        ++executed;
        const double next = ts + p.lookahead + rngs[i].next_exponential(p.mean_delay);
        out.emplace_back(static_cast<std::size_t>(rngs[i].next_below(n)), next);
      }
    }
    for (const auto& [dest, ts] : out) heaps[dest].push(ts);
  }
  return {executed, windows};
}

int run_phold(const Options& o, bool use_tram) {
  using namespace charm;
  Report rep(o);
  Harness h(o, rep);
  LayerCounters layers;
  const int npes = 32;
  pdes::Params p;
  p.nlps = npes * 64;
  p.initial_events_per_lp = 128;
  p.use_tram = use_tram;
  p.tram_buffer = 64;
  p.seed = o.seed;
  const double end_time = 1.5;

  std::uint64_t executed = 0;
  int windows = 0;
  {
    h.begin_setup();
    sim::Machine m(machine_config(npes));
    h.machine_built();
    Runtime rt(m);
    h.runtime_built();
    bool done = false;
    {
      pdes::Engine eng(rt, p);
      rt.on_pe(0, [&] {
        eng.run_until(end_time, Callback::to_function([&](ReductionResult&&) { done = true; }));
      });
      h.app_built();
      h.run(m);
      executed = eng.total_executed();
      windows = eng.windows();
      if (use_tram) {
        const tram::Core& core = pdes::Lp::tram_stream->core();
        layers.tram_items = static_cast<double>(core.items_inserted());
        layers.tram_batches = static_cast<double>(core.batches_sent());
        layers.tram_per_batch = core.aggregation();
        layers.tram_bytes = static_cast<double>(core.batch_bytes());
      }
    }
    h.finish(m, rt, done, static_cast<double>(executed));
    rep.digest().add(static_cast<std::uint64_t>(windows));
  }
  const auto [want_exec, want_windows] = phold_serial(p, end_time);
  rep.check(executed == want_exec && windows == want_windows,
            "PHOLD executed " + std::to_string(executed) + " events in " +
                std::to_string(windows) + " windows; serial replay gives " +
                std::to_string(want_exec) + " in " + std::to_string(want_windows));
  if (use_tram)
    rep.check(layers.tram_items == static_cast<double>(executed),
              "TRAM carried a different number of items than events executed");
  layers.report(rep);
  return rep.emit();
}

// ---- LeanMD with RefineLB and double in-memory checkpoints -----------------

/// Decorator timing the wrapped strategy's host cost per assign().
class TimedStrategy : public charm::lb::Strategy {
 public:
  TimedStrategy(std::unique_ptr<Strategy> inner, LayerCounters& out)
      : inner_(std::move(inner)), out_(out) {}
  std::string name() const override { return inner_->name(); }
  std::vector<charm::lb::Migration> assign(const charm::lb::Stats& stats) override {
    const Clock::time_point t = Clock::now();
    std::vector<charm::lb::Migration> migs = inner_->assign(stats);
    out_.lb_assign_ms += seconds_since(t) * 1e3;
    out_.lb_rounds += 1;
    out_.lb_migrations += static_cast<double>(migs.size());
    return migs;
  }

 private:
  std::unique_ptr<Strategy> inner_;
  LayerCounters& out_;
};

int run_leanmd(const Options& o) {
  using namespace charm;
  Report rep(o);
  Harness h(o, rep);
  LayerCounters layers;
  const int npes = 64;
  const int steps = 12;
  const int lb_period = 4;
  const int ckpt_period = 6;
  leanmd::Params p;
  p.nx = p.ny = p.nz = 5;
  p.atoms_per_cell = 28;
  p.pair_cost = 25e-9;
  p.clustering = 2.5;
  p.epsilon = 1e-6;
  p.seed = o.seed;

  {
    h.begin_setup();
    sim::Machine m(machine_config(npes));
    h.machine_built();
    Runtime rt(m);
    h.runtime_built();
    leanmd::Simulation sim(rt, p);
    rt.lb().set_strategy(std::make_unique<TimedStrategy>(lb::make_refine(1.05), layers));
    rt.lb().set_period(lb_period);
    ft::MemCheckpointer ckpt(rt);
    const std::size_t atoms0 = sim.total_atoms();
    const std::array<double, 3> mom0 = sim.total_momentum();

    // One Simulation::run(1, ...) per step; a checkpoint every ckpt_period.
    int step = 0;
    bool done = false;
    bool atoms_kept = true;
    std::function<void()> next = [&] {
      if (step == steps) {
        done = true;
        return;
      }
      sim.run(1, Callback::to_function([&](ReductionResult&& r) {
        atoms_kept = atoms_kept && r.num(0) == static_cast<double>(atoms0);
        ++step;
        if (step % ckpt_period != 0) {
          next();
          return;
        }
        const Clock::time_point t = Clock::now();
        ckpt.checkpoint(Callback::to_function([&, t](ReductionResult&&) {
          layers.ft_ckpt_ms += seconds_since(t) * 1e3;
          next();
        }));
      }));
    };
    rt.on_pe(0, [&] { next(); });
    h.app_built();
    h.run(m);

    const std::array<double, 3> mom = sim.total_momentum();
    double drift = 0, scale = 0;
    for (int k = 0; k < 3; ++k) {
      drift = std::max(drift, std::abs(mom[k] - mom0[k]));
      scale += std::abs(mom0[k]);
    }
    rep.check(sim.total_atoms() == atoms0 && atoms_kept,
              "LeanMD atom count changed: " + std::to_string(sim.total_atoms()) +
                  " vs " + std::to_string(atoms0));
    rep.check(drift <= 1e-9 * std::max(scale, 1.0),
              "LeanMD momentum drifted by " + std::to_string(drift));
    const double ke = sim.kinetic_energy();
    h.finish(m, rt, done, ke);
    rep.digest().add(static_cast<std::uint64_t>(layers.lb_migrations));
    layers.lb_dirty_reads = static_cast<double>(rt.lb().db_counters().dirty_flushed);
    layers.ft_ckpts = ckpt.checkpoints_taken();
    layers.ft_ckpt_mb = static_cast<double>(ckpt.checkpoint_bytes()) / kMiB;
  }
  layers.report(rep);
  return rep.emit();
}

// ---- 1-D ring stencil over a very wide machine ------------------------------

struct GhostMsg {
  std::int32_t step = 0;
  std::int32_t dir = 0;  ///< receiver-side slot: 0 = from left, 1 = from right
  double val = 0;
  void pup(pup::Er& p) {
    p | step;
    p | dir;
    p | val;
  }
};

struct KickMsg {
  void pup(pup::Er&) {}
};

}  // namespace

template <>
struct pup::MemCopyable<GhostMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = 2 * sizeof(std::int32_t) + sizeof(double);
};

namespace {

struct RingParams {
  std::int32_t width = 0;
  std::int32_t steps = 0;
  std::uint64_t seed = 0;
  bool withhold = false;  ///< cell 0 never contributes (benchmark self-test)
};

double initial_value(std::uint64_t seed, std::int32_t i) {
  sim::Rng rng(sim::derive_seed(seed, static_cast<std::uint64_t>(i)));
  return rng.next_double();
}

/// One cell of the 0.25/0.5/0.25 ring stencil, which conserves the sum of
/// the values.  A neighbour runs at most one step ahead, so one stash slot
/// per direction absorbs early ghosts.
class RingCell : public charm::ArrayElement<RingCell, std::int32_t> {
 public:
  static RingParams params;
  static Callback done_cb;

  void start(const KickMsg&) {
    started_ = true;
    val_ = initial_value(params.seed, index());
    send_ghosts();
    try_advance();
  }

  void recv_ghost(const GhostMsg& m) {
    if (m.step == step_) {
      ghost_[m.dir] = m.val;
      have_[m.dir] = true;
      try_advance();
    } else {
      pend_val_[m.dir] = m.val;
      pend_[m.dir] = true;
    }
  }

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | val_;
    p | step_;
    p | started_;
    for (int d = 0; d < 2; ++d) {
      p | ghost_[d];
      p | have_[d];
      p | pend_val_[d];
      p | pend_[d];
    }
  }

 private:
  void send_ghosts() {
    const std::int32_t w = params.width;
    const std::int32_t i = index();
    ArrayProxy<RingCell, std::int32_t> cells(collection_id());
    cells[(i + 1) % w].send<&RingCell::recv_ghost>(GhostMsg{step_, 0, val_});
    cells[(i - 1 + w) % w].send<&RingCell::recv_ghost>(GhostMsg{step_, 1, val_});
  }

  void try_advance() {
    while (started_ && have_[0] && have_[1]) {
      val_ = 0.25 * ghost_[0] + 0.5 * val_ + 0.25 * ghost_[1];
      charm::charge(1e-7);
      ++step_;
      have_[0] = have_[1] = false;
      if (step_ >= params.steps) {
        if (!(params.withhold && index() == 0))
          contribute(val_, charm::ReduceOp::kSum, done_cb);
        return;
      }
      send_ghosts();
      for (int d = 0; d < 2; ++d) {
        if (pend_[d]) {
          ghost_[d] = pend_val_[d];
          have_[d] = true;
          pend_[d] = false;
        }
      }
    }
  }

  double val_ = 0;
  double ghost_[2] = {0, 0};
  double pend_val_[2] = {0, 0};
  std::int32_t step_ = 0;
  bool have_[2] = {false, false};
  bool pend_[2] = {false, false};
  bool started_ = false;
};

RingParams RingCell::params;
Callback RingCell::done_cb;

int pe_of(std::int64_t i, std::int64_t w, std::int64_t p) {
  return static_cast<int>(i * p / w);
}

/// Starts the cells of one hosting PE, then chains to the next hosting PE
/// from inside the handler, so start-up waves follow each other in virtual
/// time instead of putting the whole ring's ghosts in flight at once.
void kick_chain(charm::Runtime& rt, ArrayProxy<RingCell, std::int32_t> cells,
                std::int32_t lo, std::int32_t width, int npes) {
  const int pe = pe_of(lo, width, npes);
  rt.on_pe(pe, [&rt, cells, lo, width, npes, pe]() {
    std::int32_t hi = lo + 1;
    while (hi < width && pe_of(hi, width, npes) == pe) ++hi;
    for (std::int32_t i = lo; i < hi; ++i) cells[i].send<&RingCell::start>(KickMsg{});
    if (hi < width) kick_chain(rt, cells, hi, width, npes);
  });
}

int run_stencil(const Options& o) {
  using namespace charm;
  Report rep(o);
  Harness h(o, rep);
  LayerCounters layers;
  const int npes = 1 << 16;
  const std::int32_t width = 1 << 18;
  RingCell::params = RingParams{width, 1, o.seed, o.inject == "withhold-completion"};

  double checksum = 0;
  bool done = false;
  {
    h.begin_setup();
    sim::Machine m(machine_config(npes));
    h.machine_built();
    Runtime rt(m);
    h.runtime_built();
    auto cells = ArrayProxy<RingCell, std::int32_t>::create(rt);
    const bool leave_residue = o.inject == "leftover-outstanding";
    RingCell::done_cb = Callback::to_function([&, cells, leave_residue](ReductionResult&& r) {
      checksum = r.num(0);
      done = true;
      if (leave_residue) {
        // One more message in flight, then stop the machine before it lands:
        // residue the drain checks must report.
        cells[0].send<&RingCell::recv_ghost>(GhostMsg{-1, 0, 0.0});
        rt.exit();
      }
    });
    for (std::int32_t i = 0; i < width; ++i) cells.seed(i, pe_of(i, width, npes));
    kick_chain(rt, cells, 0, width, npes);
    h.app_built();
    h.run(m);
    h.finish(m, rt, done, checksum);
  }
  double want = 0;
  for (std::int32_t i = 0; i < width; ++i) want += initial_value(o.seed, i);
  rep.check(done && std::abs(checksum - want) <= 1e-9 * std::abs(want),
            "stencil checksum " + std::to_string(checksum) + " != conserved sum " +
                std::to_string(want));
  layers.report(rep);
  return rep.emit();
}

std::vector<NamedEntry> name_entries() {
  using charm::Registry;
  namespace pdes = charm::pdes;
  namespace leanmd = charm::leanmd;
  Registry::name_entry<&pdes::Lp::recv_event>("Lp::recv_event");
  Registry::name_entry<&pdes::Lp::seed_events>("Lp::seed_events");
  Registry::name_entry<&pdes::Lp::report_min>("Lp::report_min");
  Registry::name_entry<&pdes::Lp::execute_window>("Lp::execute_window");
  Registry::name_entry<&leanmd::Compute::positions>("Compute::positions");
  Registry::name_entry<&leanmd::Cell::begin>("Cell::begin");
  Registry::name_entry<&leanmd::Cell::accept_forces>("Cell::accept_forces");
  Registry::name_entry<&leanmd::Cell::accept_atoms>("Cell::accept_atoms");
  Registry::name_entry<&RingCell::start>("RingCell::start");
  Registry::name_entry<&RingCell::recv_ghost>("RingCell::recv_ghost");
  return {
      {"Lp.recv_event", Registry::entry_of<&pdes::Lp::recv_event>()},
      {"Lp.seed_events", Registry::entry_of<&pdes::Lp::seed_events>()},
      {"Lp.report_min", Registry::entry_of<&pdes::Lp::report_min>()},
      {"Lp.execute_window", Registry::entry_of<&pdes::Lp::execute_window>()},
      {"Compute.positions", Registry::entry_of<&leanmd::Compute::positions>()},
      {"Cell.begin", Registry::entry_of<&leanmd::Cell::begin>()},
      {"Cell.accept_forces", Registry::entry_of<&leanmd::Cell::accept_forces>()},
      {"Cell.accept_atoms", Registry::entry_of<&leanmd::Cell::accept_atoms>()},
      {"RingCell.start", Registry::entry_of<&RingCell::start>()},
      {"RingCell.recv_ghost", Registry::entry_of<&RingCell::recv_ghost>()},
  };
}

void print_build() {
  std::printf("build: %s, %s, flags '%s'\n", PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=phold|phold_tram|leanmd|stencil_wide "
                 "[--seed=N] [--trace] [--expect-digest=HEX] "
                 "[--inject=withhold-completion|leftover-outstanding]\n");
    return 2;
  }
  print_build();
  g_entries = name_entries();
  if (PERFBENCH_UNFIT_BUILD) {
    std::fprintf(stderr, "perfbench: refusing to measure an unoptimised or "
                         "assert-enabled build\n");
    return 3;
  }
  if (o.workload == "phold") return run_phold(o, false);
  if (o.workload == "phold_tram") return run_phold(o, true);
  if (o.workload == "leanmd") return run_leanmd(o);
  if (o.workload == "stencil_wide") return run_stencil(o);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
  return 2;
}
