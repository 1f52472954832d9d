// Stats subsystem tests: hand-computed usage attribution and critical path,
// byte-determinism of the JSON export (same seed ⇒ identical bytes), and the
// accounting invariants fuzzed over several machine configurations
// (comm-matrix row sums == per-PE bytes sent, entry attribution conserves
// busy and exec, critical path ≤ makespan, phase coverage of the whole run).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "runtime/charm.hpp"
#include "stats/critical_path.hpp"
#include "stats/json.hpp"
#include "stats/json_export.hpp"
#include "stats/report.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

// ---- hand-computed collection ------------------------------------------------

TEST(Stats, HandComputedUsageAttribution) {
  trace::Tracer t;
  // PE0: one exec span [0,1] containing two entries; 0.3 of runtime gap.
  t.entry(0, /*col=*/2, /*ep=*/1, 0.1, 0.3);
  t.entry(0, 2, 2, 0.4, 0.9);
  t.exec(0, 0.0, 1.0, 128);
  // PE1: a pure-runtime span (no entries).
  t.exec(1, 0.2, 0.5, 0);

  const stats::Report r = stats::collect(t, 2);
  ASSERT_EQ(r.entries.size(), 3u);  // (-1,-1,pe1), (2,1,pe0), (2,2,pe0)

  const stats::EntryUsage& rt_row = r.entries[0];
  EXPECT_EQ(rt_row.col, -1);
  EXPECT_EQ(rt_row.pe, 1);
  EXPECT_EQ(rt_row.calls, 1u);
  EXPECT_NEAR(rt_row.exec, 0.3, 1e-12);
  EXPECT_EQ(rt_row.busy, 0.0);

  const stats::EntryUsage& e1 = r.entries[1];
  EXPECT_EQ(e1.col, 2);
  EXPECT_EQ(e1.ep, 1);
  EXPECT_NEAR(e1.busy, 0.2, 1e-12);
  // Exec attribution: own busy + half the 0.3 busy/exec gap.
  EXPECT_NEAR(e1.exec, 0.2 + 0.15, 1e-12);
  EXPECT_NEAR(e1.grain_min, 0.2, 1e-12);
  EXPECT_NEAR(e1.grain_max, 0.2, 1e-12);

  const stats::EntryUsage& e2 = r.entries[2];
  EXPECT_NEAR(e2.busy, 0.5, 1e-12);
  EXPECT_NEAR(e2.exec, 0.5 + 0.15, 1e-12);

  // Attribution conserves exec time: Σ entry exec == Σ PE exec.
  double entry_exec = 0;
  for (const auto& u : r.entries) entry_exec += u.exec;
  EXPECT_NEAR(entry_exec, r.total_exec(), 1e-12);

  EXPECT_NEAR(r.makespan, 1.0, 1e-12);
  EXPECT_NEAR(r.pes[0].busy, 0.7, 1e-12);
  EXPECT_NEAR(r.pes[0].exec, 1.0, 1e-12);
  EXPECT_NEAR(r.pes[1].idle, 1.0 - 0.3, 1e-12);
}

TEST(Stats, HandComputedCommMatrixAndHistograms) {
  trace::Tracer t;
  t.send(0, 1, /*bytes=*/64, /*hops=*/2, 0.0, 0.25);
  t.send(0, 1, 100, 2, 0.1, 0.35);
  t.send(1, 0, 7, 1, 0.2, 0.4);
  t.send(0, 0, 0, 0, 0.3, 0.3);
  t.recv(1, 0, 64, 0.25, 0.30);

  const stats::Report r = stats::collect(t, 2);
  ASSERT_EQ(r.comm.size(), 3u);  // sorted (src, dst): (0,0), (0,1), (1,0)
  EXPECT_EQ(r.comm[0].src, 0);
  EXPECT_EQ(r.comm[0].dst, 0);
  EXPECT_EQ(r.comm[0].bytes, 0u);
  EXPECT_EQ(r.comm[1].dst, 1);
  EXPECT_EQ(r.comm[1].msgs, 2u);
  EXPECT_EQ(r.comm[1].bytes, 164u);
  EXPECT_EQ(r.comm[2].src, 1);
  EXPECT_EQ(r.comm[2].bytes, 7u);

  EXPECT_EQ(r.pes[0].msgs_sent, 3u);
  EXPECT_EQ(r.pes[0].bytes_sent, 164u);
  EXPECT_EQ(r.pes[1].bytes_sent, 7u);
  EXPECT_EQ(r.pes[1].msgs_recv, 1u);
  EXPECT_NEAR(r.pes[1].queue_wait, 0.05, 1e-12);

  // size_log2: 0 -> bucket 0; 7 -> bucket 3; 64 -> bucket 7; 100 -> bucket 7.
  EXPECT_EQ(r.messages.size_log2.total, 4u);
  EXPECT_EQ(r.messages.size_log2.count(0), 1u);
  EXPECT_EQ(r.messages.size_log2.count(3), 1u);
  EXPECT_EQ(r.messages.size_log2.count(7), 2u);
  // hops_log2: 0 -> 0; 1 -> 1; 2 -> 2 (twice).
  EXPECT_EQ(r.messages.hops_log2.count(2), 2u);
  EXPECT_EQ(r.messages.hops, 5u);
}

TEST(Stats, HandComputedCriticalPath) {
  trace::Tracer t;
  // PE0 executes [0,1]; at 0.5 it sends a message (latency 0.2) that PE1
  // services at 0.8 for 0.5s.  Chain: 0.5 into the sender + 0.2 network +
  // 0.5 execution = 1.2, longer than either span alone.
  t.recv(0, 0, 0, 0.0, 0.0);
  t.send(0, 1, 64, 1, 0.5, 0.7);
  t.exec(0, 0.0, 1.0, 0);
  t.recv(1, 0, 64, 0.7, 0.8);
  t.exec(1, 0.8, 1.3, 64);

  const stats::CriticalPathStats cp = stats::critical_path(t.events(), 2);
  EXPECT_EQ(cp.edges_matched, 1u);
  EXPECT_NEAR(cp.length, 1.2, 1e-12);
  EXPECT_NEAR(cp.work, 1.0, 1e-12);
  EXPECT_NEAR(cp.comm, 0.2, 1e-12);
  EXPECT_EQ(cp.nodes, 2u);
}

// ---- a deterministic chatter workload for real-run checks --------------------

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

/// Runs the chatter workload on a fresh machine and returns the trace.
void run_chatter(int npes, sim::NetworkParams net, std::uint32_t seed, int chains,
                 int hops, trace::Tracer& tracer, double* makespan = nullptr) {
  Harness h(npes, net);
  h.machine.set_tracer(&tracer);
  auto arr = ArrayProxy<Chatter>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % npes);
  h.rt.on_pe(0, [&] {
    for (int c = 0; c < chains; ++c) {
      arr[c % kElems].send<&Chatter::chat>(WorkMsg{seed + 0x9e3779b9u * static_cast<std::uint32_t>(c), hops});
    }
  });
  h.machine.run();
  if (makespan != nullptr) *makespan = h.machine.max_pe_clock();
}

stats::ExportMeta test_meta() {
  stats::ExportMeta meta;
  meta.bench = "test_stats";
  meta.smoke = true;
  return meta;
}

// ---- determinism -------------------------------------------------------------

TEST(Stats, SameSeedProducesByteIdenticalJson) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    trace::Tracer t;
    run_chatter(4, sim::NetworkParams{}, /*seed=*/7, /*chains=*/6, /*hops=*/40, t);
    json[run] = stats::to_json(stats::collect(t, 4), test_meta());
  }
  EXPECT_GT(json[0].size(), 0u);
  EXPECT_EQ(json[0], json[1]) << "same seed must produce byte-identical stats JSON";
}

TEST(Stats, DifferentSeedProducesDifferentJson) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    trace::Tracer t;
    run_chatter(4, sim::NetworkParams{}, /*seed=*/run == 0 ? 7 : 8, 6, 40, t);
    json[run] = stats::to_json(stats::collect(t, 4), test_meta());
  }
  EXPECT_NE(json[0], json[1]);
}

// ---- invariants fuzzed over machine configs ----------------------------------

TEST(Stats, InvariantsHoldAcrossMachineConfigs) {
  struct Config {
    int npes;
    sim::NetworkParams net;
    std::uint32_t seed;
    int chains;
    int hops;
  };
  const Config configs[] = {
      {2, sim::NetworkParams{}, 1, 3, 30},
      {4, sim::NetworkParams::bluegene_q(), 2, 6, 50},
      {5, sim::NetworkParams::cloud_ethernet(), 3, 4, 25},
      {8, sim::NetworkParams::cray_gemini(), 4, 8, 40},
  };
  for (const Config& cfg : configs) {
    SCOPED_TRACE("npes=" + std::to_string(cfg.npes) + " seed=" + std::to_string(cfg.seed));
    trace::Tracer t;
    double makespan = 0;
    run_chatter(cfg.npes, cfg.net, cfg.seed, cfg.chains, cfg.hops, t, &makespan);
    const stats::Report r = stats::collect(t, cfg.npes);
    EXPECT_NEAR(r.makespan, makespan, 1e-12);

    // Comm-matrix row sums == per-PE sent bytes/messages; column sums are
    // bounded by received bytes (messages to failed/never-serviced PEs keep
    // recv below send, never above).
    std::vector<std::uint64_t> row_bytes(static_cast<std::size_t>(cfg.npes), 0);
    std::vector<std::uint64_t> row_msgs(static_cast<std::size_t>(cfg.npes), 0);
    std::uint64_t cell_bytes = 0;
    for (const stats::CommCell& c : r.comm) {
      row_bytes[static_cast<std::size_t>(c.src)] += c.bytes;
      row_msgs[static_cast<std::size_t>(c.src)] += c.msgs;
      cell_bytes += c.bytes;
    }
    for (int pe = 0; pe < cfg.npes; ++pe) {
      const auto i = static_cast<std::size_t>(pe);
      EXPECT_EQ(row_bytes[i], r.pes[i].bytes_sent) << "pe " << pe;
      EXPECT_EQ(row_msgs[i], r.pes[i].msgs_sent) << "pe " << pe;
    }
    EXPECT_EQ(cell_bytes, r.messages.bytes);
    EXPECT_EQ(r.messages.size_log2.total, r.messages.sends);
    EXPECT_EQ(r.messages.hops_log2.total, r.messages.sends);

    // Entry attribution conserves both busy and exec time.
    double entry_busy = 0, entry_exec = 0;
    for (const stats::EntryUsage& u : r.entries) {
      entry_busy += u.busy;
      entry_exec += u.exec;
      EXPECT_LE(u.grain_min, u.grain_max);
    }
    EXPECT_NEAR(entry_busy, r.total_busy(), 1e-12);
    EXPECT_NEAR(entry_exec, r.total_exec(), 1e-12);

    // Phases tile [0, makespan] and conserve busy time.
    ASSERT_FALSE(r.phases.empty());
    EXPECT_EQ(r.phases.front().t0, 0.0);
    EXPECT_NEAR(r.phases.back().t1, r.makespan, 1e-12);
    double phase_busy = 0;
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(r.phases[i].t0, r.phases[i - 1].t1);
      }
      phase_busy += r.phases[i].busy;
    }
    EXPECT_NEAR(phase_busy, r.total_busy(), 1e-9);

    // Critical path: a real dependency chain, bounded by the makespan.
    EXPECT_GT(r.critical_path.length, 0.0);
    EXPECT_LE(r.critical_path.length, r.makespan + 1e-12);
    EXPECT_NEAR(r.critical_path.work + r.critical_path.comm, r.critical_path.length, 1e-12);
    EXPECT_GT(r.critical_path.nodes, 1u);
    EXPECT_GT(r.critical_path.edges_matched, 0u);
  }
}

// ---- JSON export / parser round trip -----------------------------------------

TEST(Stats, ExportedJsonParsesAndMatchesReport) {
  trace::Tracer t;
  run_chatter(4, sim::NetworkParams{}, 11, 5, 30, t);
  const stats::Report r = stats::collect(t, 4);
  stats::ExportMeta meta = test_meta();
  stats::SeriesTable table;
  table.title = "t";
  table.columns = {"PEs", "ms"};
  table.rows = {{4, 1.25}, {8, 0.5}};
  meta.series.push_back(table);
  meta.notes.push_back("a \"quoted\" note");
  const std::string body = stats::to_json(r, meta);

  stats::json::Value doc;
  std::string err;
  ASSERT_TRUE(stats::json::parse(body, doc, &err)) << err;
  EXPECT_EQ(doc.str("schema"), stats::kSchemaName);
  EXPECT_EQ(doc.num("version"), stats::kSchemaVersion);
  EXPECT_EQ(doc.str("bench"), "test_stats");
  EXPECT_EQ(static_cast<int>(doc.num("npes")), 4);
  EXPECT_EQ(doc.num("makespan"), r.makespan) << "numbers must round-trip exactly";
  ASSERT_NE(doc.find("pes"), nullptr);
  EXPECT_EQ(doc.find("pes")->array.size(), 4u);
  ASSERT_NE(doc.find("entries"), nullptr);
  EXPECT_EQ(doc.find("entries")->array.size(), r.entries.size());
  const stats::json::Value* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array.size(), 1u);
  EXPECT_EQ(series->array[0].find("rows")->array[0].array[1].number, 1.25);
  EXPECT_EQ(doc.find("notes")->array[0].string, "a \"quoted\" note");
  const stats::json::Value* cp = doc.find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->num("length"), r.critical_path.length);
}

TEST(StatsJson, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1e-9, 3.14159265358979, 1.0 / 3.0, 6.02e23}) {
    const std::string s = stats::json::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(stats::json::format_double(0.0), "0");
  EXPECT_EQ(stats::json::format_double(-0.0), "0");
  EXPECT_EQ(stats::json::format_double(0.25), "0.25");
}

// ---- phase segmentation on a real LB run -------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class SyncWorker : public charm::ArrayElement<SyncWorker, std::int32_t> {
 public:
  int pending = 0;
  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge((1 + index() % 3) * 1e-4);
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

TEST(Stats, LbRunProducesPhaseSegments) {
  trace::Tracer tracer;
  {
    Harness h(4);
    h.machine.set_tracer(&tracer);
    auto arr = ArrayProxy<SyncWorker>::create(h.rt);
    for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
    h.rt.lb().register_collection(arr.id());
    h.rt.lb().set_strategy(lb::make_greedy());
    h.rt.lb().set_period(2);
    h.rt.on_pe(0, [&] { arr.broadcast<&SyncWorker::step>(IterMsg{6}); });
    h.machine.run();
  }
  const stats::Report r = stats::collect(tracer, 4);
  // Every completed LB round ends a segment, so there are at least two, and
  // all segments after the first are labeled by the phase that opened them.
  ASSERT_GE(r.phases.size(), 2u);
  EXPECT_EQ(r.phases.front().name, "start");
  for (std::size_t i = 1; i < r.phases.size(); ++i) EXPECT_EQ(r.phases[i].name, "lb_step");
  double busy = 0;
  for (const auto& ph : r.phases) busy += ph.busy;
  EXPECT_NEAR(busy, r.total_busy(), 1e-9);
}

}  // namespace
