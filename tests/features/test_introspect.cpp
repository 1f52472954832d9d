// Live introspection tests (DESIGN.md §11): the online Monitor's samples
// must reconcile with the post-mortem trace-derived stats on the same run,
// attaching it must not perturb virtual time by a single bit, the sample
// timeline must be deterministic and monotone across machine phases,
// steady-state sampling must be allocation-free (operator-new-counting
// gate), and the decision journal must record LB / FT / malleability events.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ft/mem_checkpoint.hpp"
#include "introspect/metrics.hpp"
#include "lb/strategy.hpp"
#include "malleability/malleability.hpp"
#include "runtime/charm.hpp"
#include "stats/chrome_export.hpp"
#include "stats/json.hpp"
#include "stats/json_export.hpp"
#include "stats/report.hpp"
#include "stats/schema.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

// ---- operator new/delete counting hook --------------------------------------
//
// Same idiom as tests/core/test_queues.cpp: a global allocation counter
// toggled around the measured region; the hooks otherwise defer to malloc.
// This file is its own test executable so the replacement operators cannot
// collide with the queue test's.

namespace {
bool g_counting = false;
std::size_t g_allocs = 0;
}  // namespace

// GCC pairs the inlined replacement operator new with the free() inside the
// replacement operator delete and flags a mismatch; the pair is consistent
// by construction (both sides are malloc/free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocs;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace charm;
using charmtest::Harness;

// ---- deterministic chatter workload (mirrors tests/features/test_stats) -----

constexpr int kElems = 16;

struct WorkMsg {
  std::uint32_t seed = 0;
  std::int32_t hops = 0;
  void pup(pup::Er& p) {
    p | seed;
    p | hops;
  }
};

class Chatter : public charm::ArrayElement<Chatter, std::int32_t> {
 public:
  void chat(const WorkMsg& m) {
    const std::uint32_t s = m.seed * 1664525u + 1013904223u;
    charge((1.0 + static_cast<double>(s >> 28)) * 1e-6);
    if (m.hops > 0) {
      ArrayProxy<Chatter> arr(collection_id());
      arr[static_cast<std::int32_t>(s % kElems)].send<&Chatter::chat>(
          WorkMsg{s, m.hops - 1});
    }
  }
  void pup(pup::Er& p) override { ArrayElementBase::pup(p); }
};

void kick_chatter(Harness& h, ArrayProxy<Chatter>& arr, std::uint32_t seed,
                  int chains, int hops) {
  h.rt.on_pe(0, [&arr, seed, chains, hops] {
    for (int c = 0; c < chains; ++c) {
      arr[c % kElems].send<&Chatter::chat>(
          WorkMsg{seed + 0x9e3779b9u * static_cast<std::uint32_t>(c), hops});
    }
  });
}

// ---- live counters vs. post-mortem stats ------------------------------------

TEST(Introspect, LiveCountersReconcileWithPostMortem) {
  constexpr int kNpes = 4;
  Harness h(kNpes);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  introspect::Monitor mon;
  mon.set_interval(1e-5);
  mon.attach(h.machine);

  auto arr = ArrayProxy<Chatter>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % kNpes);
  kick_chatter(h, arr, /*seed=*/7, /*chains=*/6, /*hops=*/40);
  h.machine.run();
  // time() is the last *event* timestamp; the final handler's execution span
  // extends past it, so it lower-bounds the trace makespan.
  const stats::Report r = stats::collect(tracer, kNpes);
  EXPECT_GT(mon.time(), 0.0);
  EXPECT_LE(mon.time(), r.makespan + 1e-12);

  // Close the window holding the run's last event: that sample carries the
  // whole run's cumulative counters.
  const double t_end = mon.time();
  mon.on_step(t_end + mon.interval(), 0);
  ASSERT_FALSE(mon.samples().empty());
  const introspect::Sample& last = mon.samples().back();
  EXPECT_GE(last.t, t_end);
  // exec sums the identical `clock_end - clock_begin` expression the
  // post-mortem collector derives from the trace spans: bit-exact.
  EXPECT_EQ(last.exec, r.total_exec());
  EXPECT_EQ(last.execs, r.total_execs());
  EXPECT_EQ(last.msgs, r.messages.sends);
  EXPECT_EQ(last.bytes, r.messages.bytes);
  // busy accumulates per-entry durations in arrival order while the
  // post-mortem value sums trace spans: same terms, FP-rounding tolerance.
  EXPECT_NEAR(last.busy, r.total_busy(), 1e-9 * (r.total_busy() + 1e-30));
}

// ---- zero virtual-time perturbation -----------------------------------------

TEST(Introspect, AttachingMonitorDoesNotPerturbVirtualTime) {
  auto run = [](bool with_metrics, std::string* json_out) {
    constexpr int kNpes = 4;
    Harness h(kNpes);
    trace::Tracer tracer;
    h.machine.set_tracer(&tracer);
    introspect::Monitor mon;
    if (with_metrics) {
      mon.set_interval(5e-6);  // aggressive cadence: many boundary crossings
      mon.attach(h.machine);
    }
    auto arr = ArrayProxy<Chatter>::create(h.rt);
    for (int i = 0; i < kElems; ++i) arr.seed(i, i % kNpes);
    kick_chatter(h, arr, /*seed=*/11, /*chains=*/6, /*hops=*/50);
    h.machine.run();
    if (with_metrics) {
      EXPECT_GT(mon.samples().size(), 4u);
    }
    // The metrics block stays disabled so both exports use the same schema.
    *json_out = stats::to_json(stats::collect(tracer, kNpes), stats::ExportMeta{});
    return h.machine.events_processed();
  };
  std::string base_json, metered_json;
  const std::uint64_t base_events = run(false, &base_json);
  const std::uint64_t metered_events = run(true, &metered_json);
  EXPECT_EQ(base_events, metered_events)
      << "sampling must not inject events";
  EXPECT_EQ(base_json, metered_json)
      << "every clock, span, and message must be byte-identical with metrics on";
}

// ---- timeline determinism and invariants ------------------------------------

TEST(Introspect, SamplesAreDeterministicAndMonotone) {
  constexpr int kNpes = 4;
  constexpr double kInterval = 1e-5;
  // Two machine phases on one timeline: after the first drains, resume()
  // starts a second that keeps accumulating on the same clock.
  auto run = [](std::vector<introspect::Sample>* out) {
    Harness h(kNpes);
    introspect::Monitor mon;
    mon.set_interval(kInterval);
    mon.attach(h.machine);
    auto arr = ArrayProxy<Chatter>::create(h.rt);
    for (int i = 0; i < kElems; ++i) arr.seed(i, i % kNpes);
    kick_chatter(h, arr, /*seed=*/3, /*chains=*/5, /*hops=*/60);
    h.machine.run();
    const double t1 = mon.time();
    const std::size_t n1 = mon.samples().size();
    ASSERT_GT(n1, 0u);
    const std::uint64_t execs1 = mon.samples().back().execs;

    h.machine.resume();
    kick_chatter(h, arr, /*seed=*/6, /*chains=*/4, /*hops=*/30);
    h.machine.run();
    EXPECT_GT(mon.time(), t1);
    ASSERT_GT(mon.samples().size(), n1);
    EXPECT_GT(mon.samples().back().execs, execs1);
    *out = mon.samples();
    EXPECT_EQ(mon.dropped_samples(), 0u);
  };
  std::vector<introspect::Sample> a, b;
  run(&a);
  run(&b);
  ASSERT_GT(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());

  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    const introspect::Sample& s = a[i];
    const introspect::Sample& t = b[i];
    // Two identical runs produce identical timelines, field for field.
    EXPECT_EQ(s.t, t.t);
    EXPECT_EQ(s.busy, t.busy);
    EXPECT_EQ(s.exec, t.exec);
    EXPECT_EQ(s.execs, t.execs);
    EXPECT_EQ(s.msgs, t.msgs);
    EXPECT_EQ(s.bytes, t.bytes);
    EXPECT_EQ(s.lambda, t.lambda);
    EXPECT_EQ(s.ready, t.ready);
    EXPECT_EQ(s.ready_hwm, t.ready_hwm);
    EXPECT_EQ(s.evq, t.evq);
    EXPECT_EQ(s.evq_hwm, t.evq_hwm);

    // Timestamps are exact interval multiples (computed, not accumulated).
    EXPECT_EQ(s.t, kInterval * static_cast<double>(i + 1));
    // Watermarks bound the instantaneous depths in every window.
    EXPECT_GE(s.ready_hwm, s.ready);
    EXPECT_GE(s.evq_hwm, s.evq);
    EXPECT_GE(s.busy_max, s.busy_avg);
    EXPECT_LE(s.coll_msgs, s.msgs);
    EXPECT_LE(s.coll_bytes, s.bytes);
    if (i > 0) {
      // Cumulative fields never decrease; rates match the window deltas.
      EXPECT_GE(s.busy, a[i - 1].busy);
      EXPECT_GE(s.exec, a[i - 1].exec);
      EXPECT_GE(s.execs, a[i - 1].execs);
      EXPECT_GE(s.msgs, a[i - 1].msgs);
      EXPECT_GE(s.bytes, a[i - 1].bytes);
      EXPECT_EQ(s.msg_rate,
                static_cast<double>(s.msgs - a[i - 1].msgs) / kInterval);
      EXPECT_EQ(s.byte_rate,
                static_cast<double>(s.bytes - a[i - 1].bytes) / kInterval);
    }
  }
}

// ---- allocation-free steady state -------------------------------------------

TEST(Introspect, SteadyStateSamplingIsAllocationFree) {
  Harness h(8);
  introspect::Monitor mon;
  mon.set_interval(1e-6);
  mon.attach(h.machine);

  // Warm-up: touch every PE the steady state will see (first touch of a PE
  // page allocates) and confirm the sample buffer is pre-reserved.
  for (int pe = 0; pe < 8; ++pe) mon.on_entry(pe, /*col=*/1, /*ep=*/pe % 3, 0.0, 1e-7);
  ASSERT_GE(introspect::Monitor::kSampleReserve, 2048u);

  g_allocs = 0;
  g_counting = true;
  double now = 0;
  for (int i = 0; i < 20000; ++i) {
    const int pe = i % 8;
    mon.on_send(pe, (pe + 1) % 8, 128, /*hops=*/1, now, now);
    mon.on_ready(pe, /*depth=*/2);
    mon.on_entry(pe, 1, pe % 3, now, 1e-7);
    mon.on_exec_end(pe, now, now + 2e-7, 128, /*depth=*/1);
    now += 1e-7;  // crosses a sample boundary every 10 iterations
    mon.on_step(now, /*evq_depth=*/4);
  }
  g_counting = false;

  EXPECT_EQ(g_allocs, 0u) << "hot-path hooks and boundary sampling must not "
                             "allocate in the steady state";
  EXPECT_GT(mon.samples().size(), 1000u);
  EXPECT_LT(mon.samples().size(), introspect::Monitor::kSampleReserve);
}

// ---- decision journal -------------------------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class Worker : public charm::ArrayElement<Worker, std::int32_t> {
 public:
  double weight = 1.0;
  int pending = 0;

  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge(weight * 1e-3);
    at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      IterMsg m{pending - 1};
      charm::ArrayProxy<Worker> self(collection_id());
      self[index()].send<&Worker::step>(m);
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | weight;
    p | pending;
  }
};

std::vector<sim::Phase> kinds_of(const introspect::Monitor& mon) {
  std::vector<sim::Phase> out;
  for (const introspect::JournalEvent& e : mon.journal_events())
    out.push_back(e.kind);
  return out;
}

TEST(Introspect, JournalRecordsLbRounds) {
  Harness h(4);
  introspect::Monitor mon;
  mon.attach(h.machine);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, i < 8 ? 0 : (i % 4));
  for (int pe = 0; pe < 4; ++pe) {
    for (auto& [ix, obj] : h.rt.collection(arr.id()).local(pe).elems)
      static_cast<Worker*>(obj.get())->weight = 2.0;
  }
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(2);
  h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{6}); });
  h.machine.run();

  int lb_rounds = 0, barrier_rounds = 0, migrations = 0;
  double prev_t = 0;
  for (const introspect::JournalEvent& e : mon.journal_events()) {
    EXPECT_GE(e.t, prev_t) << "journal must be time-ordered";
    prev_t = e.t;
    if (e.kind == sim::Phase::kLbRound) {
      EXPECT_GE(e.value, 0.0);
      if (e.aux < 0) {  // barrier only: no strategy ran
        ++barrier_rounds;
        continue;
      }
      ++lb_rounds;
      migrations += e.aux;
    }
  }
  EXPECT_GE(lb_rounds, 2) << "period-2 AtSync over 7 steps must journal "
                             "at least two strategy rounds";
  EXPECT_EQ(lb_rounds + barrier_rounds, static_cast<int>(h.rt.lb().history().size()))
      << "every AtSync round is journaled, barrier-only ones too";
  int migs = 0;
  for (const auto& r : h.rt.lb().history()) migs += r.migrations;
  EXPECT_EQ(migrations, migs) << "journal aux must mirror the LB history";
}

struct CellMsg {
  int steps = 0;
  void pup(pup::Er& p) { p | steps; }
};

class Cell : public charm::ArrayElement<Cell, std::int32_t> {
 public:
  int steps = 0;
  void work(const CellMsg& m) {
    charm::charge(1e-4);
    ++steps;
    if (m.steps > 1) {
      ArrayProxy<Cell> self(collection_id());
      self[index()].send<&Cell::work>(CellMsg{m.steps - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | steps;
  }
};

TEST(Introspect, JournalRecordsCheckpointFailureAndRestore) {
  Harness h(6);
  introspect::Monitor mon;
  mon.attach(h.machine);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;

  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::work>(CellMsg{5});
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(3, Callback::to_function([&](ReductionResult&&) {
          recovered = true;
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);

  const auto kinds = kinds_of(mon);
  auto find_kind = [&](sim::Phase k) {
    for (std::size_t i = 0; i < kinds.size(); ++i)
      if (kinds[i] == k) return static_cast<int>(i);
    return -1;
  };
  const int ckpt_i = find_kind(sim::Phase::kCheckpoint);
  const int fail_i = find_kind(sim::Phase::kFailure);
  const int rest_i = find_kind(sim::Phase::kRestore);
  ASSERT_GE(ckpt_i, 0) << "checkpoint commit must be journaled";
  ASSERT_GE(fail_i, 0) << "fail_pe must journal the failure";
  ASSERT_GE(rest_i, 0) << "rollback completion must be journaled";
  EXPECT_LT(ckpt_i, fail_i);
  EXPECT_LT(fail_i, rest_i);
  EXPECT_EQ(mon.journal_events()[static_cast<std::size_t>(fail_i)].aux, 3)
      << "failure aux is the victim PE";
  EXPECT_GT(mon.journal_events()[static_cast<std::size_t>(ckpt_i)].value, 0.0)
      << "checkpoint value is the committed byte count";
}

TEST(Introspect, JournalRecordsShrinkAndExpand) {
  Harness h(8);
  introspect::Monitor mon;
  mon.attach(h.machine);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  h.rt.lb().register_collection(arr.id());
  ccs::Server server(h.rt);

  bool shrunk = false;
  h.rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) { shrunk = true; }));
    arr.broadcast<&Worker::step>(IterMsg{3});
  });
  h.machine.run();
  ASSERT_TRUE(shrunk);

  h.machine.resume();
  bool expanded = false;
  h.rt.on_pe(0, [&] {
    server.request_expand(8, Callback::to_function([&](ReductionResult&&) { expanded = true; }));
    arr.broadcast<&Worker::step>(IterMsg{3});
  });
  h.machine.run();
  ASSERT_TRUE(expanded);

  const introspect::JournalEvent* shrink_e = nullptr;
  const introspect::JournalEvent* expand_e = nullptr;
  for (const introspect::JournalEvent& e : mon.journal_events()) {
    if (e.kind == sim::Phase::kShrink) shrink_e = &e;
    if (e.kind == sim::Phase::kExpand) expand_e = &e;
  }
  ASSERT_NE(shrink_e, nullptr);
  ASSERT_NE(expand_e, nullptr);
  EXPECT_EQ(shrink_e->aux, 4) << "shrink aux is the target PE count";
  EXPECT_EQ(shrink_e->value, 8.0) << "shrink value is the old PE count";
  EXPECT_EQ(expand_e->aux, 8);
  EXPECT_EQ(expand_e->value, 4.0);
  EXPECT_LT(shrink_e->t, expand_e->t);
}

// ---- one phase vocabulary: every fact reaches both sinks -----------------------

/// The traced phase spans of `kind`.
std::vector<trace::Event> spans_of(const trace::Tracer& t, sim::Phase kind) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : t.events())
    if (e.kind == trace::Kind::kPhase && e.phase == kind) out.push_back(e);
  return out;
}

/// The journal rows of `kind`.
std::vector<introspect::JournalEvent> rows_of(const introspect::Monitor& mon, sim::Phase kind) {
  std::vector<introspect::JournalEvent> out;
  for (const introspect::JournalEvent& e : mon.journal_events())
    if (e.kind == kind) out.push_back(e);
  return out;
}

TEST(Introspect, ReconfigIsTracedAndJournaledAtOneTime) {
  Harness h(8);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  introspect::Monitor mon;
  mon.attach(h.machine);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  h.rt.lb().register_collection(arr.id());

  bool shrunk = false;
  h.rt.on_pe(0, [&] {
    h.rt.lb().request_reconfig(
        4, 0.0, Callback::to_function([&](ReductionResult&&) { shrunk = true; }));
    arr.broadcast<&Worker::step>(IterMsg{2});
  });
  h.machine.run();
  ASSERT_TRUE(shrunk);
  h.machine.resume();
  bool expanded = false;
  h.rt.on_pe(0, [&] {
    h.rt.lb().request_reconfig(
        8, 0.0, Callback::to_function([&](ReductionResult&&) { expanded = true; }));
    arr.broadcast<&Worker::step>(IterMsg{2});
  });
  h.machine.run();
  ASSERT_TRUE(expanded);

  for (const sim::Phase kind : {sim::Phase::kShrink, sim::Phase::kExpand}) {
    SCOPED_TRACE(sim::phase_name(kind));
    const std::vector<trace::Event> spans = spans_of(tracer, kind);
    const std::vector<introspect::JournalEvent> rows = rows_of(mon, kind);
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(spans[0].end, rows[0].t);
    EXPECT_EQ(spans[0].a, rows[0].aux) << "aux is the target PE count";
    EXPECT_EQ(rows[0].aux, kind == sim::Phase::kShrink ? 4 : 8);
  }
  // The stats phase table is cut at each reconfiguration.
  int cut = 0;
  for (const stats::PhaseStats& ph : stats::collect(tracer, 8).phases)
    cut += ph.name == "shrink" || ph.name == "expand";
  EXPECT_EQ(cut, 2);
}

TEST(Introspect, BarrierOnlyLbRoundIsJournaledWithItsSpan) {
  // No strategy and no period: every AtSync round is a barrier release.
  Harness h(4);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  introspect::Monitor mon;
  mon.attach(h.machine);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{3}); });
  h.machine.run();

  const std::vector<trace::Event> spans = spans_of(tracer, sim::Phase::kLbRound);
  const std::vector<introspect::JournalEvent> rows = rows_of(mon, sim::Phase::kLbRound);
  ASSERT_EQ(spans.size(), 4u) << "one round per step of the 4-step chain";
  ASSERT_EQ(rows.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].a, -1) << "barrier only";
    EXPECT_EQ(rows[i].aux, -1);
    EXPECT_EQ(rows[i].t, spans[i].end);
    EXPECT_EQ(rows[i].value, spans[i].end - spans[i].begin) << "value is the round's cost";
  }
}

TEST(Introspect, TraceStatsAndJournalNameEveryPhaseFromOneTable) {
  // One fact of every kind, reported through the machine during a run that
  // outlasts them all, reaches the Chrome trace, the stats phase table and
  // the metrics journal under sim::phase_name.
  Harness h(2);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  introspect::Monitor mon;
  mon.set_interval(1e-3);
  mon.attach(h.machine);
  constexpr std::size_t kinds = sim::kPhaseNames.size();
  for (std::size_t k = 0; k < kinds; ++k) {
    const double t = 1e-3 * static_cast<double>(k + 1);
    h.machine.post(0, t, [&h, k, t] {
      h.machine.note_phase(sim::PhaseEvent{static_cast<sim::Phase>(k), 0, t, t});
    });
  }
  h.machine.post(1, 0.0, [&h] { h.machine.charge(1e-3 * static_cast<double>(kinds + 1)); });
  h.machine.run();

  std::vector<std::string> want(sim::kPhaseNames.begin(), sim::kPhaseNames.end());
  std::vector<std::string> journal;
  for (const introspect::JournalEvent& e : mon.journal_events())
    journal.push_back(sim::phase_name(e.kind));
  EXPECT_EQ(journal, want);

  std::vector<std::string> traced;
  std::ostringstream chrome;
  stats::write_chrome_trace(tracer.events(), chrome);
  stats::json::Value trace_doc;
  ASSERT_TRUE(stats::json::parse(chrome.str(), trace_doc, nullptr));
  for (const stats::json::Value& e : trace_doc.find("traceEvents")->array)
    if (e.str("cat") == "phase") traced.push_back(e.str("name"));
  EXPECT_EQ(traced, want);

  stats::ExportMeta meta;
  meta.bench = "phase_names_probe";
  meta.metrics = &mon;
  const std::string body = stats::to_json(stats::collect(tracer, 2), meta);
  std::string err;
  EXPECT_TRUE(stats::check(body, &err)) << err;
  stats::json::Value doc;
  ASSERT_TRUE(stats::json::parse(body, doc, &err)) << err;
  std::vector<std::string> segments, rows;
  for (const stats::json::Value& ph : doc.find("phases")->array) segments.push_back(ph.str("name"));
  for (const stats::json::Value& j : doc.find("journal")->array) rows.push_back(j.str("kind"));
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front(), "start");
  EXPECT_EQ(std::vector<std::string>(segments.begin() + 1, segments.end()), want);
  EXPECT_EQ(rows, want);
}

// ---- sample cap --------------------------------------------------------------

TEST(Introspect, SampleCapCountsEveryDroppedBoundary) {
  Harness h(2);
  introspect::Monitor mon;
  mon.set_interval(1.0);
  mon.attach(h.machine);
  // One event gap crossing kSampleCap + 37 boundaries: the first kSampleCap
  // are recorded, each of the remaining 37 is counted as dropped.
  constexpr std::uint64_t kOver = 37;
  mon.on_step(static_cast<double>(introspect::Monitor::kSampleCap + kOver) + 0.5, 0);
  EXPECT_EQ(mon.samples().size(), introspect::Monitor::kSampleCap);
  EXPECT_EQ(mon.dropped_samples(), kOver);
  EXPECT_EQ(mon.samples().back().t, static_cast<double>(introspect::Monitor::kSampleCap));

  // A gap of ~1e15 boundaries is counted without visiting each one.
  mon.attach(h.machine);
  mon.on_step(1e15 + 0.5, 0);
  EXPECT_EQ(mon.samples().size(), introspect::Monitor::kSampleCap);
  EXPECT_EQ(mon.dropped_samples(),
            std::uint64_t{1000000000000000} - introspect::Monitor::kSampleCap);
}

// ---- export plumbing --------------------------------------------------------

TEST(Introspect, ExportWritesMonitorSamplesAndJournal) {
  Harness h(4);
  introspect::Monitor mon;
  mon.set_interval(1e-5);
  mon.attach(h.machine);
  auto arr = ArrayProxy<Chatter>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % 4);
  kick_chatter(h, arr, /*seed=*/13, /*chains=*/4, /*hops=*/30);
  h.machine.run();
  mon.on_phase(sim::PhaseEvent{sim::Phase::kLbRound, 0, 0.0, mon.time(), 2, 0.5});
  // Barrier-only rounds and disk checkpoints are journaled like the rest.
  mon.on_phase(sim::PhaseEvent{sim::Phase::kLbRound, 0, 0.0, mon.time(), -1, 0.0});
  mon.on_phase(sim::PhaseEvent{sim::Phase::kDiskCheckpoint, 0, 0.0, mon.time()});
  ASSERT_EQ(mon.journal_events().size(), 3u);
  ASSERT_GT(mon.samples().size(), 0u);

  // The exporter reads the monitor directly: the block lands in the JSON
  // between the optional sections and "totals", journal kind on the wire.
  stats::ExportMeta meta;
  meta.metrics = &mon;
  trace::Tracer t;
  const std::string body = stats::to_json(stats::collect(t, 4), meta);
  stats::json::Value doc;
  std::string err;
  ASSERT_TRUE(stats::json::parse(body, doc, &err)) << err;
  EXPECT_EQ(doc.num("metrics_interval"), 1e-5);
  const stats::json::Value* ts = doc.find("timeseries");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->array.size(), mon.samples().size());
  for (std::size_t i = 0; i < mon.samples().size(); ++i) {
    EXPECT_EQ(ts->array[i].num("t"), mon.samples()[i].t);
    EXPECT_EQ(ts->array[i].num("busy"), mon.samples()[i].busy);
    EXPECT_EQ(ts->array[i].num("msgs"), static_cast<double>(mon.samples()[i].msgs));
  }
  const stats::json::Value* journal = doc.find("journal");
  ASSERT_NE(journal, nullptr);
  ASSERT_EQ(journal->array.size(), 3u);
  EXPECT_EQ(journal->array[0].str("kind"), "lb_step");
  EXPECT_EQ(journal->array[0].num("aux"), 2.0);
  EXPECT_EQ(journal->array[0].num("value"), 0.5);
  EXPECT_EQ(journal->array[1].str("kind"), "lb_step");
  EXPECT_EQ(journal->array[1].num("aux"), -1.0);
  EXPECT_EQ(journal->array[2].str("kind"), "disk_checkpoint");
  EXPECT_LT(body.find("\"journal\":["), body.find("\"totals\":"));
}

}  // namespace
