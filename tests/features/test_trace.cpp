// Tracing subsystem tests: event recording against a hand-computed ping-pong,
// time-profile bin accounting, usage statistics derived from the log, Chrome
// export shape, quarantine muting of every observer, and — most importantly —
// that tracing never perturbs the simulation (results are bit-identical with
// tracing on, off, or absent).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "ft/checkpoint.hpp"
#include "ft/mem_checkpoint.hpp"
#include "introspect/metrics.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "runtime/charm.hpp"
#include "sim/fault_injector.hpp"
#include "stats/chrome_export.hpp"
#include "stats/json.hpp"
#include "stats/json_export.hpp"
#include "stats/report.hpp"
#include "stats/schema.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

struct PingMsg {
  int value = 0;
  void pup(pup::Er& p) { p | value; }
};

class Ponger : public charm::ArrayElement<Ponger, std::int32_t> {
 public:
  int received = 0;
  void recv(const PingMsg& m) {
    ++received;
    charge(2e-6);
    if (m.value > 0) {
      ArrayProxy<Ponger> peers(collection_id());
      peers[1 - index()].send<&Ponger::recv>(PingMsg{m.value - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | received;
  }
};

using charmtest::Harness;

// Runs a 2-PE ping-pong with `hops` total entry invocations.
void run_pingpong(Harness& h, trace::Tracer* tracer, int hops) {
  if (tracer) h.machine.set_tracer(tracer);
  auto arr = ArrayProxy<Ponger>::create(h.rt);
  arr.seed(0, 0);
  arr.seed(1, 1);
  h.rt.on_pe(0, [&] { arr[0].send<&Ponger::recv>(PingMsg{hops - 1}); });
  h.machine.run();
}

std::size_t count_kind(const trace::Tracer& t, trace::Kind k) {
  return static_cast<std::size_t>(
      std::count_if(t.events().begin(), t.events().end(),
                    [k](const trace::Event& e) { return e.kind == k; }));
}

// ---- event recording ---------------------------------------------------------

TEST(Trace, PingPongEntryCountsAndOrdering) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 10);

  // Exactly one kEntry per entry-method invocation: the initial send plus the
  // nine relays.  Nothing else in the run (seeding, on_pe bootstrap, control
  // traffic) is an entry method.
  EXPECT_EQ(count_kind(tracer, trace::Kind::kEntry), 10u);

  // Every handler execution is bracketed: recv (queueing) before, exec after.
  EXPECT_EQ(count_kind(tracer, trace::Kind::kExec), count_kind(tracer, trace::Kind::kRecv));
  EXPECT_GE(count_kind(tracer, trace::Kind::kExec), 10u);

  // Events carry sane virtual-time spans and alternate between the two PEs.
  int expected_pe = 0;
  for (const auto& e : tracer.events()) {
    EXPECT_LE(e.begin, e.end);
    if (e.kind == trace::Kind::kEntry) {
      EXPECT_EQ(e.pe, expected_pe);
      expected_pe = 1 - expected_pe;
      // The span covers the 2us the method charged, plus (for all but the
      // final hop) the send overhead the method's own relay charged.
      EXPECT_GE(e.end - e.begin, 2e-6 - 1e-12);
      EXPECT_LE(e.end - e.begin, 2e-6 + 2e-6);
    }
  }

  // Each entry span nests inside the exec span recorded right after it.
  const auto& ev = tracer.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != trace::Kind::kEntry) continue;
    ASSERT_LT(i + 1, ev.size());
    EXPECT_EQ(ev[i + 1].kind, trace::Kind::kExec);
    EXPECT_EQ(ev[i + 1].pe, ev[i].pe);
    EXPECT_LE(ev[i + 1].begin, ev[i].begin);
    EXPECT_GE(ev[i + 1].end, ev[i].end);
  }
}

TEST(Trace, SendEventsCarryLatencyAndDestination) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 8);

  std::size_t cross = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::Kind::kSend) continue;
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.a, 2);
    EXPECT_LE(e.begin, e.end);
    if (e.pe != e.a) {
      ++cross;
      EXPECT_GT(e.end, e.begin) << "cross-PE messages have network latency";
      EXPECT_GT(e.bytes, 0u);
    }
  }
  // At least the 7 relay hops cross between the PEs.
  EXPECT_GE(cross, 7u);
}

// ---- neutrality: tracing must not change the simulation ----------------------

TEST(Trace, ResultsBitIdenticalWithTracingOnOffAbsent) {
  struct Result {
    double clock = 0;
    double busy[2] = {0, 0};
    std::uint64_t executed[2] = {0, 0};
  };
  // Only one Runtime may exist at a time, so each run is scoped.
  auto measure = [](trace::Tracer* tracer, bool detach_before_run = false) {
    Harness h(2);
    if (tracer) h.machine.set_tracer(tracer);
    if (detach_before_run) h.machine.set_tracer(nullptr);
    run_pingpong(h, nullptr, 50);
    Result r;
    r.clock = h.machine.max_pe_clock();
    for (int pe = 0; pe < 2; ++pe) {
      r.busy[pe] = h.machine.pe(pe).busy_time();
      r.executed[pe] = h.machine.pe(pe).executed();
    }
    return r;
  };

  const Result plain = measure(nullptr);

  trace::Tracer on;
  const Result traced = measure(&on);
  EXPECT_GT(on.size(), 0u);

  trace::Tracer off;
  const Result detached = measure(&off, /*detach_before_run=*/true);
  EXPECT_EQ(off.size(), 0u) << "a detached tracer records nothing";
  EXPECT_EQ(off.observed(), nullptr);

  for (const Result* r : {&traced, &detached}) {
    EXPECT_EQ(r->clock, plain.clock);
    for (int pe = 0; pe < 2; ++pe) {
      EXPECT_EQ(r->busy[pe], plain.busy[pe]);
      EXPECT_EQ(r->executed[pe], plain.executed[pe]);
    }
  }
}

// ---- time profile ------------------------------------------------------------

TEST(TimeProfile, HandComputedBins) {
  // One exec span [0,1] on PE0 with an entry method covering [0.25,0.75].
  trace::Tracer t;
  t.exec(0, 0.0, 1.0, 0);
  t.entry(0, 0, 0, 0.25, 0.75);
  auto prof = stats::time_profile(t.events(), /*npes=*/1, /*nbins=*/4, /*t_end=*/1.0);

  ASSERT_EQ(prof.nbins, 4);
  EXPECT_DOUBLE_EQ(prof.bin_width, 0.25);
  const double kBusy[4] = {0.0, 1.0, 1.0, 0.0};
  for (int b = 0; b < 4; ++b) {
    const auto& bin = prof.at(0, b);
    EXPECT_NEAR(bin.busy, kBusy[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.overhead, 1.0 - kBusy[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.idle, 0.0, 1e-12) << "bin " << b;
  }
}

TEST(TimeProfile, BinsSumToOneAndMatchPeBusyTime) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 40);

  const int nbins = 16;
  auto prof = stats::time_profile(tracer.events(), 2, nbins);
  ASSERT_EQ(prof.npes, 2);
  ASSERT_GT(prof.bin_width, 0.0);

  for (int pe = 0; pe < 2; ++pe) {
    double exec_seconds = 0;
    for (int b = 0; b < nbins; ++b) {
      const auto& bin = prof.at(pe, b);
      EXPECT_NEAR(bin.busy + bin.overhead + bin.idle, 1.0, 1e-9)
          << "pe " << pe << " bin " << b;
      EXPECT_GE(bin.busy, 0.0);
      EXPECT_GE(bin.overhead, 0.0);
      EXPECT_GE(bin.idle, 0.0);
      exec_seconds += (bin.busy + bin.overhead) * prof.bin_width;
    }
    // busy+overhead integrates back to the PE's measured execution time.
    EXPECT_NEAR(exec_seconds, h.machine.pe(pe).busy_time(), 1e-9);
  }
  // The mean profile also keeps the invariant.
  for (int b = 0; b < nbins; ++b) {
    EXPECT_NEAR(prof.mean[b].busy + prof.mean[b].overhead + prof.mean[b].idle, 1.0, 1e-9);
  }
}

TEST(TimeProfile, ExplicitEndCutsLaterSpans) {
  // PE0 runs exec [0,0.6] around entry [0.1,0.5], then exec [0.7,1.0] around
  // entry [0.75,0.95]; the profile stops at t_end = 0.8, inside the last span.
  trace::Tracer t;
  t.entry(0, 0, 0, 0.1, 0.5);
  t.exec(0, 0.0, 0.6, 0);
  t.entry(0, 0, 0, 0.75, 0.95);
  t.exec(0, 0.7, 1.0, 0);
  auto prof = stats::time_profile(t.events(), /*npes=*/1, /*nbins=*/2, /*t_end=*/0.8);

  EXPECT_DOUBLE_EQ(prof.t1, 0.8);
  EXPECT_DOUBLE_EQ(prof.bin_width, 0.4);
  // Bin 0 [0,0.4): exec 0.4, entry 0.3.  Bin 1 [0.4,0.8): exec 0.2 + 0.1,
  // entry 0.1 + 0.05; the 0.2 s of exec and entry after 0.8 are cut off.
  const double kBusy[2] = {0.75, 0.375};
  const double kOverhead[2] = {0.25, 0.375};
  const double kIdle[2] = {0.0, 0.25};
  for (int b = 0; b < 2; ++b) {
    const auto& bin = prof.at(0, b);
    EXPECT_NEAR(bin.busy, kBusy[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.overhead, kOverhead[b], 1e-12) << "bin " << b;
    EXPECT_NEAR(bin.idle, kIdle[b], 1e-12) << "bin " << b;
  }
}

TEST(TimeProfile, IntegratesToCollectUsageOnLeanMdWithLb) {
  // The profile and collect's phase table share one window fold, so each PE's
  // profile integrates back to its PeUsage busy and exec.
  const int npes = 8;
  trace::Tracer tracer;
  {
    Harness h(npes);
    h.machine.set_tracer(&tracer);
    leanmd::Params p;
    p.nx = p.ny = p.nz = 3;
    p.atoms_per_cell = 12;
    p.clustering = 3.0;
    p.epsilon = 1e-6;
    leanmd::Simulation sim(h.rt, p);
    h.rt.lb().set_strategy(lb::make_refine(1.05));
    h.rt.lb().set_period(2);
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(4, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    ASSERT_TRUE(done);
  }
  const stats::Report r = stats::collect(tracer, npes);
  ASSERT_GE(r.phases.size(), 2u) << "the run must contain an LB round";
  EXPECT_EQ(r.phases[1].name, "lb_step");

  const stats::TimeProfile prof = stats::time_profile(tracer.events(), npes, 20);
  EXPECT_EQ(prof.t1, r.makespan);
  const double tol = 1e-12 * r.makespan;
  for (int pe = 0; pe < npes; ++pe) {
    double busy = 0;
    double exec = 0;
    for (int b = 0; b < prof.nbins; ++b) {
      busy += prof.at(pe, b).busy * prof.bin_width;
      exec += (prof.at(pe, b).busy + prof.at(pe, b).overhead) * prof.bin_width;
    }
    EXPECT_GT(r.pes[static_cast<std::size_t>(pe)].busy, 0.0) << "pe " << pe;
    EXPECT_NEAR(busy, r.pes[static_cast<std::size_t>(pe)].busy, tol) << "pe " << pe;
    EXPECT_NEAR(exec, r.pes[static_cast<std::size_t>(pe)].exec, tol) << "pe " << pe;
  }
}

// ---- usage statistics from the log (stats::collect) ---------------------------

TEST(TraceSummary, HandComputedStats) {
  // Machine order: a span's entries are logged before the span itself.
  trace::Tracer t;
  t.entry(0, /*col=*/3, /*ep=*/7, 0.0, 0.6);
  t.exec(0, 0.0, 1.0, 100);
  t.entry(1, 3, 7, 0.1, 0.3);
  t.entry(1, 3, 8, 0.3, 0.4);
  t.exec(1, 0.0, 0.5, 50);
  t.send(0, 1, 64, 2, 0.0, 0.25);
  t.recv(1, 0, 64, 0.25, 0.30);

  const stats::Report r = stats::collect(t, 2);
  // Rows are per (col, ep, pe), sorted.
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_EQ(r.entries[0].col, 3);
  EXPECT_EQ(r.entries[0].ep, 7);
  EXPECT_EQ(r.entries[0].pe, 0);
  EXPECT_EQ(r.entries[1].ep, 7);
  EXPECT_EQ(r.entries[1].pe, 1);
  EXPECT_NEAR(r.entries[0].busy + r.entries[1].busy, 0.8, 1e-12);
  EXPECT_NEAR(r.entries[0].grain_max, 0.6, 1e-12);
  EXPECT_EQ(r.entries[2].ep, 8);
  EXPECT_EQ(r.entries[2].calls, 1u);

  ASSERT_EQ(r.pes.size(), 2u);
  EXPECT_EQ(r.pes[0].execs, 1u);
  EXPECT_NEAR(r.pes[0].busy, 0.6, 1e-12);
  EXPECT_NEAR(r.pes[0].overhead(), 0.4, 1e-12);
  EXPECT_NEAR(r.pes[1].busy, 0.3, 1e-12);

  EXPECT_EQ(r.messages.sends, 1u);
  EXPECT_EQ(r.messages.bytes, 64u);
  EXPECT_EQ(r.messages.hops, 2u);
  EXPECT_NEAR(r.messages.total_latency, 0.25, 1e-12);
  EXPECT_NEAR(r.messages.total_queue_wait, 0.05, 1e-12);
  EXPECT_NEAR(r.makespan, 1.0, 1e-12);
}

TEST(TraceSummary, RealRunBusyMatchesEntryTotals) {
  Harness h(2);
  trace::Tracer tracer;
  run_pingpong(h, &tracer, 20);
  const stats::Report r = stats::collect(tracer, 2);

  double entry_total = 0;
  std::uint64_t calls = 0;
  for (const stats::EntryUsage& u : r.entries) {
    entry_total += u.busy;
    if (u.col >= 0) calls += u.calls;  // (-1, -1) rows are entry-less spans
  }
  EXPECT_EQ(calls, 20u);
  EXPECT_NEAR(entry_total, r.total_busy(), 1e-12);
  // 20 charges of 2us each, plus the relay sends' charged overhead.
  EXPECT_GE(entry_total, 20 * 2e-6 - 1e-10);
  EXPECT_LE(entry_total, 20 * 4e-6);
  EXPECT_GT(r.total_exec(), r.total_busy()) << "scheduling overhead exists";
}

// ---- Chrome export -----------------------------------------------------------

TEST(ChromeExport, EmitsWellFormedEventStream) {
  trace::Tracer t;
  t.exec(0, 0.0, 1e-3, 128);
  t.entry(0, 2, 5, 1e-4, 9e-4);
  t.send(0, 1, 64, 1, 2e-4, 5e-4);
  t.recv(1, 0, 64, 5e-4, 6e-4);
  t.idle(1, 0.0, 5e-4);
  t.phase_span(sim::Phase::kLbRound, 0, 0.0, 1e-3, 3);

  std::ostringstream os;
  stats::write_chrome_trace(t.events(), os, [](int col, int ep) {
    return "c" + std::to_string(col) + ".e" + std::to_string(ep);
  });
  const std::string j = os.str();

  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"c2.e5\""), std::string::npos) << "labeler applied";
  EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos) << "flow start for the send";
  EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos) << "flow finish for the send";
  EXPECT_NE(j.find("\"lb_step\""), std::string::npos);
  // Braces and brackets balance — a cheap structural sanity check.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['), std::count(j.begin(), j.end(), ']'));
  EXPECT_EQ(j.find(",]"), std::string::npos) << "no trailing commas";

  const char* path = "test_trace_chrome_out.json";
  EXPECT_TRUE(stats::write_chrome_trace_file(t.events(), path, nullptr));
  std::remove(path);
}

/// Writes `t` as a Chrome trace and parses it back.
stats::json::Value chrome_doc(const trace::Tracer& t, const stats::EntryLabeler& label = {}) {
  std::ostringstream os;
  stats::write_chrome_trace(t.events(), os, label);
  stats::json::Value doc;
  std::string err;
  EXPECT_TRUE(stats::json::parse(os.str(), doc, &err)) << err;
  return doc;
}

TEST(ChromeExport, TimesAreTheExactVirtualTimes) {
  // Two adjacent 50-ns spans late in a run: 6 significant digits would
  // print both at the same ts and make the second start inside the first.
  const double t0 = 7.316490123;
  const double t1 = t0 + 50e-9;
  const double t2 = t1 + 50e-9;
  trace::Tracer t;
  t.exec(0, t0, t1, 8);
  t.exec(0, t1, t2, 8);
  const stats::json::Value doc = chrome_doc(t);
  std::vector<const stats::json::Value*> spans;
  for (const stats::json::Value& e : doc.find("traceEvents")->array)
    if (e.str("name") == "exec") spans.push_back(&e);
  ASSERT_EQ(spans.size(), 2u);
  const double begins[] = {t0, t1};
  const double ends[] = {t1, t2};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(spans[i]->num("ts"), begins[i] * 1e6) << "span " << i;
    EXPECT_EQ(spans[i]->num("dur"), (ends[i] - begins[i]) * 1e6) << "span " << i;
  }
  EXPECT_NE(spans[0]->num("ts"), spans[1]->num("ts"));
}

TEST(ChromeExport, EntryLabelsAreEscapedNotDropped) {
  trace::Tracer t;
  t.entry(0, 2, 5, 0.0, 1e-6);
  const stats::json::Value doc =
      chrome_doc(t, [](int, int) { return std::string("A\nB \"q\""); });
  bool found = false;
  for (const stats::json::Value& e : doc.find("traceEvents")->array)
    found |= e.str("cat") == "entry" && e.str("name") == "A\nB \"q\"";
  EXPECT_TRUE(found) << "the label round-trips unchanged";
}

TEST(ChromeExport, EntryNamesFollowTheStatsRecordRule) {
  const stats::EntryLabeler named = [](int, int ep) {
    return ep == 5 ? std::string("Named::ep") : std::string();
  };
  EXPECT_EQ(stats::entry_label(named, -1, -1), "runtime");
  EXPECT_EQ(stats::entry_label(named, 2, 5), "Named::ep");
  EXPECT_EQ(stats::entry_label(named, 2, 6), "col2.ep6");
  EXPECT_EQ(stats::entry_label(named, 2, -1), "col2.apply");
  EXPECT_EQ(stats::entry_label({}, 3, 5), "col3.ep5");

  trace::Tracer t;
  t.entry(0, -1, -1, 0.0, 1e-6);
  t.entry(0, 2, 6, 1e-6, 2e-6);
  t.entry(0, 2, -1, 2e-6, 3e-6);
  const stats::json::Value doc = chrome_doc(t, named);
  std::vector<std::string> names;
  for (const stats::json::Value& e : doc.find("traceEvents")->array)
    if (e.str("cat") == "entry") names.push_back(e.str("name"));
  EXPECT_EQ(names, (std::vector<std::string>{"runtime", "col2.ep6", "col2.apply"}));
}

// ---- runtime phase spans -----------------------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class SyncWorker : public charm::ArrayElement<SyncWorker, std::int32_t> {
 public:
  int pending = 0;
  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge(1e-3);
    at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      charm::ArrayProxy<SyncWorker> self(collection_id());
      self[index()].send<&SyncWorker::step>(IterMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
  }
};

TEST(Trace, LbStepPhaseSpansRecorded) {
  Harness h(4);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  auto arr = ArrayProxy<SyncWorker>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(2);
  h.rt.on_pe(0, [&] { arr.broadcast<&SyncWorker::step>(IterMsg{4}); });
  h.machine.run();

  std::size_t phases = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase) continue;
    EXPECT_EQ(e.phase, sim::Phase::kLbRound);
    EXPECT_LE(e.begin, e.end);
    ++phases;
  }
  // One phase span per completed AtSync round.
  EXPECT_EQ(phases, static_cast<std::size_t>(h.rt.lb().rounds_completed()));
}

// ---- quarantine disposal stays out of every observer -------------------------

// Disposal of messages addressed to a failed PE runs their handlers in a
// zero-cost quarantine context so side effects (completion counters, refcount
// drops) still happen — but those executions are not real work and must not
// appear in the trace: no exec/busy time on the dead PE, and no sends
// attributed to it.

TEST(Trace, QuarantineDisposalRecordsNothing) {
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  trace::Tracer tracer;
  m.set_tracer(&tracer);

  m.post(1, 0.0, [&m] {
    m.charge(1e-3);
    m.send(0, 64, 0, [] {});
  });
  m.fail_pe(1);  // quarantine before delivery: the message is disposed
  m.run();

  EXPECT_EQ(m.messages_dropped(), 1u);
  EXPECT_EQ(tracer.observed(), &m) << "muting must end with the disposal";

  const stats::Report r = stats::collect(tracer, 2);
  EXPECT_EQ(r.pes[1].execs, 0u) << "disposed handler must not count as an execution";
  EXPECT_EQ(r.pes[1].exec, 0.0);
  EXPECT_EQ(r.pes[1].busy, 0.0);
  EXPECT_EQ(count_kind(tracer, trace::Kind::kSend), 0u)
      << "sends made during disposal must not be traced";
}

TEST(Trace, QuarantineDrainOfReadyQueueRecordsNothing) {
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  trace::Tracer tracer;
  m.set_tracer(&tracer);

  // First message executes normally for 1s; the second arrives while PE 1 is
  // still busy and is waiting in the ready queue when PE 0 kills PE 1 at 0.5,
  // so it is disposed by the quarantine drain instead of executing.
  m.post(1, 0.0, [&m] { m.charge(1.0); });
  m.post(1, 0.1, [&m] {
    m.charge(5.0);
    m.send(0, 32, 0, [] {});
  });
  m.post(0, 0.5, [&m] { m.fail_pe(1); });
  m.run();

  EXPECT_EQ(m.messages_dropped(), 1u);
  const stats::Report r = stats::collect(tracer, 2);
  EXPECT_EQ(r.pes[1].execs, 1u) << "only the pre-failure handler really ran";
  // 1s of charged work plus per-delivery scheduling overhead — and none of
  // the disposed handler's 5s.
  EXPECT_NEAR(r.pes[1].exec, 1.0, 1e-4);
  EXPECT_EQ(count_kind(tracer, trace::Kind::kSend), 0u);
}

// A third sink beside the tracer and the monitor: counts every hook, and
// separately those that arrive while the disposed handler is running.
bool g_in_disposed_handler = false;

class HookCounter : public sim::Observer {
 public:
  std::uint64_t hooks = 0;
  std::uint64_t during_disposal = 0;

  void on_send(int, int, std::size_t, int, double, double) override { note(); }
  void on_ready(int, std::size_t) override { note(); }
  void on_exec_begin(int, double, double, double, int, std::size_t) override { note(); }
  void on_exec_end(int, double, double, std::size_t, std::size_t) override { note(); }
  void on_entry(int, int, int, double, double) override { note(); }
  void on_collective(std::size_t) override { note(); }
  void on_phase(const sim::PhaseEvent&) override { note(); }
  void on_step(double, std::size_t) override { note(); }

 private:
  void note() {
    ++hooks;
    if (g_in_disposed_handler) ++during_disposal;
  }
};

TEST(Trace, QuarantineMutesEverySink) {
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  trace::Tracer tracer;
  introspect::Monitor mon;
  HookCounter fake;
  m.set_tracer(&tracer);
  mon.set_interval(1e-4);
  mon.attach(m);
  m.attach(fake);

  bool ran = false;
  m.post(1, 0.0, [&m, &ran] {
    g_in_disposed_handler = true;
    ran = true;
    m.charge(1e-3);
    m.send(0, 64, 0, [] {});
    g_in_disposed_handler = false;
  });
  m.fail_pe(1);  // quarantine before delivery: the message is disposed
  m.run();

  ASSERT_TRUE(ran) << "a disposed handler still runs";
  EXPECT_EQ(m.messages_dropped(), 1u);

  // Tracer: nothing on the dead PE but its failure span, and no send at all.
  for (const trace::Event& e : tracer.events()) {
    if (e.kind == trace::Kind::kPhase) continue;
    EXPECT_NE(e.pe, 1);
  }
  EXPECT_EQ(count_kind(tracer, trace::Kind::kSend), 0u);

  // Monitor: the sample closing the run counts no send, entry time or ready
  // message, and exactly the executions the tracer saw, all on live PE 0
  // (the muted send's delivery).
  mon.on_step(mon.time() + mon.interval(), 0);
  ASSERT_FALSE(mon.samples().empty());
  const introspect::Sample& last = mon.samples().back();
  double traced_exec = 0;
  for (const trace::Event& e : tracer.events())
    if (e.kind == trace::Kind::kExec) traced_exec += e.end - e.begin;
  EXPECT_EQ(count_kind(tracer, trace::Kind::kExec), 1u);
  EXPECT_EQ(last.execs, 1u);
  EXPECT_EQ(last.exec, traced_exec);
  EXPECT_EQ(last.msgs, 0u);
  EXPECT_EQ(last.bytes, 0u);
  EXPECT_EQ(last.busy, 0.0);
  EXPECT_EQ(last.ready, 0u);
  // A direct fail_pe is traced and journaled, once each, at the same time.
  ASSERT_EQ(mon.journal_events().size(), 1u);
  EXPECT_EQ(mon.journal_events()[0].kind, sim::Phase::kFailure);
  ASSERT_EQ(count_kind(tracer, trace::Kind::kPhase), 1u);
  for (const trace::Event& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase) continue;
    EXPECT_EQ(e.pe, 1);
    EXPECT_EQ(e.begin, mon.journal_events()[0].t);
  }

  // The fake: muted during disposal, live before and after it.
  EXPECT_EQ(fake.during_disposal, 0u);
  EXPECT_GT(fake.hooks, 0u);
  EXPECT_EQ(fake.observed(), &m);
}

/// One failure of PE 2 after a committed checkpoint, raised by
/// fail_and_recover (`injected` false) or by a one-shot injection 1 ms
/// after the commit; returns when recovery has completed.  `at` receives
/// the failure's virtual time as the caller raised or armed it.
void fail_once(bool injected, trace::Tracer& tracer, introspect::Monitor& mon, double& at) {
  Harness h(4);
  h.machine.set_tracer(&tracer);
  mon.attach(h.machine);
  auto arr = ArrayProxy<Ponger>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  sim::FaultConfig fc;
  fc.mode = sim::FaultMode::kFixed;  // no schedule: only the armed strike
  sim::FaultInjector fi(fc);
  h.machine.set_fault_injector(&fi);
  ft::MemCheckpointer ckpt(h.rt);
  ckpt.attach_injector(fi);
  h.rt.on_pe(0, [&] {
    ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
      at = charm::now() + (injected ? 1e-3 : 0.0);
      h.rt.after(0, 2e-3, [] {});  // an injection fires only before an event
      if (injected) {
        fi.arm(at, 2);
      } else {
        ckpt.fail_and_recover(2, Callback::ignore());
      }
    }));
  });
  h.machine.run();
  EXPECT_EQ(ckpt.recoveries_completed(), 1);
  EXPECT_EQ(fi.failures_injected(), injected ? 1 : 0);
}

TEST(Trace, ManualAndInjectedFailuresAreOneSpanAndOneJournalRowEach) {
  for (const bool injected : {false, true}) {
    SCOPED_TRACE(injected ? "injected" : "manual");
    trace::Tracer tracer;
    introspect::Monitor mon;
    double at = -1;
    fail_once(injected, tracer, mon, at);

    std::vector<const trace::Event*> spans;
    for (const trace::Event& e : tracer.events())
      if (e.kind == trace::Kind::kPhase && e.phase == sim::Phase::kFailure) spans.push_back(&e);
    std::vector<introspect::JournalEvent> rows;
    for (const introspect::JournalEvent& j : mon.journal_events())
      if (j.kind == sim::Phase::kFailure) rows.push_back(j);
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(spans[0]->pe, 2);
    EXPECT_EQ(spans[0]->a, 2) << "aux is the victim";
    EXPECT_EQ(rows[0].aux, 2);
    EXPECT_EQ(spans[0]->begin, at);
    EXPECT_EQ(spans[0]->end, at);
    EXPECT_EQ(rows[0].t, at);
  }
}

TEST(Trace, DiskCheckpointIsOneSpanAndOneJournalRow) {
  const std::string path = std::string("/tmp/charmlike_") +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".ckpt";
  trace::Tracer tracer;
  introspect::Monitor mon;
  mon.set_interval(1e-4);
  Harness h(4);
  h.machine.set_tracer(&tracer);
  mon.attach(h.machine);
  auto arr = ArrayProxy<Ponger>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  double begin = -1, done = -1;
  h.rt.on_pe(0, [&] {
    begin = charm::now();
    ft::checkpoint_to_file(h.rt, path, Callback::to_function([&](ReductionResult&&) {
      done = charm::now();
    }));
  });
  h.machine.run();
  std::remove(path.c_str());
  ASSERT_GE(done, 0.0);

  std::vector<const trace::Event*> spans;
  for (const trace::Event& e : tracer.events())
    if (e.kind == trace::Kind::kPhase && e.phase == sim::Phase::kDiskCheckpoint)
      spans.push_back(&e);
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(mon.journal_events().size(), 1u);
  const introspect::JournalEvent& row = mon.journal_events()[0];
  EXPECT_EQ(row.kind, sim::Phase::kDiskCheckpoint);
  EXPECT_EQ(spans[0]->begin, begin);
  EXPECT_EQ(spans[0]->end, row.t);
  EXPECT_GT(row.t, begin);
  EXPECT_LE(row.t, done);

  // The exported record names the row and passes the schema check.
  stats::ExportMeta meta;
  meta.bench = "disk_checkpoint_probe";
  meta.metrics = &mon;
  const std::string body = stats::to_json(stats::collect(tracer, 4), meta);
  EXPECT_NE(body.find("\"kind\":\"disk_checkpoint\""), std::string::npos);
  std::string err;
  EXPECT_TRUE(stats::check(body, &err)) << err;
}

}  // namespace
