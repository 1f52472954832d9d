// Load balancing framework tests: strategy quality properties, the AtSync
// protocol, speed awareness, distributed gossip, and MetaLB triggering.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "lb/distributed.hpp"
#include "lb/meta.hpp"
#include "runtime/charm.hpp"
#include "trace/trace.hpp"

#include "lb_reference.hpp"
#include "test_util.hpp"

namespace {

using namespace charm;

// ---- pure strategy tests over synthetic stats --------------------------------

lb::Stats synthetic_stats(int npes, const std::vector<double>& works,
                          const std::vector<double>& speeds = {}) {
  lb::Stats s;
  s.npes = npes;
  s.pe_speed = lbref::speed_map(speeds);
  for (std::size_t i = 0; i < works.size(); ++i) {
    lb::ChareInfo c;
    c.col = 0;
    c.idx = ObjIndex{i, 0};
    c.pe = static_cast<int>(i % static_cast<std::size_t>(npes));
    c.work = works[i];
    c.coords = {static_cast<double>(i), 0.0, 0.0};
    s.chares.push_back(c);
  }
  return s;
}

// Predicted max/avg completion ratio for a placement.
double imbalance_of(const lb::Stats& s) {
  std::vector<double> done(static_cast<std::size_t>(s.npes), 0.0);
  for (const lb::ChareInfo& c : s.chares) {
    const int pe = std::min(c.pe, s.npes - 1);
    done[static_cast<std::size_t>(pe)] += c.work / s.pe_speed[static_cast<std::size_t>(pe)];
  }
  const double mx = *std::max_element(done.begin(), done.end());
  const double avg = std::accumulate(done.begin(), done.end(), 0.0) / s.npes;
  return avg > 0 ? mx / avg : 1.0;
}

void apply_migs(lb::Stats& s, const std::vector<lb::Migration>& migs) {
  for (const auto& m : migs) {
    for (auto& c : s.chares) {
      if (c.col == m.col && c.idx == m.idx) c.pe = m.to;
    }
  }
}

TEST(LbStrategy, GreedyFlattensSkewedLoad) {
  // One heavy chare per "hot" pattern: PE0 would own most of the work.
  std::vector<double> works;
  for (int i = 0; i < 64; ++i) works.push_back(i % 8 == 0 ? 8.0 : 1.0);
  lb::Stats s = synthetic_stats(8, works);
  const double before = imbalance_of(s);
  auto migs = lb::make_greedy()->assign(s);
  apply_migs(s, migs);
  const double after = imbalance_of(s);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 1.15);
}

TEST(LbStrategy, RefineMovesFewChares) {
  std::vector<double> works(64, 1.0);
  works[0] = 6.0;  // mild imbalance
  lb::Stats s = synthetic_stats(8, works);
  auto migs = lb::make_refine(1.10)->assign(s);
  EXPECT_LE(migs.size(), 12u) << "refine should be incremental";
  apply_migs(s, migs);
  EXPECT_LT(imbalance_of(s), 1.6);
}

TEST(LbStrategy, GreedyRespectsPeSpeeds) {
  // PE1 runs at half speed: it must end with roughly half the work.
  std::vector<double> works(32, 1.0);
  lb::Stats s = synthetic_stats(2, works, {1.0, 0.5});
  auto migs = lb::make_greedy()->assign(s);
  apply_migs(s, migs);
  double w0 = 0, w1 = 0;
  for (const auto& c : s.chares) (c.pe == 0 ? w0 : w1) += c.work;
  EXPECT_NEAR(w0 / w1, 2.0, 0.4);
}

TEST(LbStrategy, NonMigratableChstaysPut) {
  std::vector<double> works(16, 1.0);
  lb::Stats s = synthetic_stats(4, works);
  s.chares[3].migratable = false;
  s.chares[3].work = 100.0;
  for (auto* make : {&lb::make_greedy, &lb::make_hybrid}) {
    auto migs = (*make)().get()->assign(s);
    for (const auto& m : migs) EXPECT_FALSE(m.idx == s.chares[3].idx);
  }
}

TEST(LbStrategy, HybridComparableToGreedy) {
  std::vector<double> works;
  sim::Rng rng(99);
  for (int i = 0; i < 256; ++i) works.push_back(0.5 + rng.next_double() * 4.0);
  lb::Stats s1 = synthetic_stats(16, works);
  lb::Stats s2 = s1;
  auto g = lb::make_greedy()->assign(s1);
  auto h = lb::make_hybrid()->assign(s2);
  apply_migs(s1, g);
  apply_migs(s2, h);
  EXPECT_LT(imbalance_of(s2), 1.3);
  EXPECT_LT(imbalance_of(s1), 1.15);
}

TEST(LbStrategy, OrbPreservesSpatialLocalityAndBalance) {
  // Chares on a 2-D grid with uniform weight: ORB partitions should be
  // spatially compact and balanced.
  lb::Stats s;
  s.npes = 4;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      lb::ChareInfo c;
      c.col = 0;
      c.idx = ObjIndex{static_cast<std::uint64_t>(x), static_cast<std::uint64_t>(y)};
      c.pe = 0;
      c.work = 1.0;
      c.coords = {static_cast<double>(x), static_cast<double>(y), 0};
      s.chares.push_back(c);
    }
  }
  auto migs = lb::make_orb()->assign(s);
  apply_migs(s, migs);
  EXPECT_LT(imbalance_of(s), 1.1);
  // Compactness: average pairwise distance within a PE partition must be well
  // below the global average.
  auto dist = [&](const lb::ChareInfo& a, const lb::ChareInfo& b) {
    const double dx = a.coords[0] - b.coords[0];
    const double dy = a.coords[1] - b.coords[1];
    return dx * dx + dy * dy;
  };
  double intra = 0, all = 0;
  int n_intra = 0, n_all = 0;
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    for (std::size_t j = i + 1; j < s.chares.size(); ++j) {
      const double d = dist(s.chares[i], s.chares[j]);
      all += d;
      ++n_all;
      if (s.chares[i].pe == s.chares[j].pe) {
        intra += d;
        ++n_intra;
      }
    }
  }
  EXPECT_LT(intra / n_intra, 0.5 * all / n_all);
}

TEST(LbStrategy, GossipReducesImbalanceWithLocalKnowledge) {
  std::vector<double> works;
  for (int i = 0; i < 128; ++i) works.push_back(i % 16 < 2 ? 6.0 : 1.0);
  lb::Stats s = synthetic_stats(16, works);
  const double before = imbalance_of(s);
  auto g = lb::gossip_assign(s, 1234);
  apply_migs(s, g.migrations);
  EXPECT_LT(imbalance_of(s), before);
  EXPECT_GT(g.probes, 0);
}

// ---- end-to-end AtSync rounds -----------------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class Worker : public charm::ArrayElement<Worker, std::int32_t> {
 public:
  double weight = 1.0;
  int iters_done = 0;
  int pending = 0;

  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge(weight * 1e-3);
    ++iters_done;
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
    p | iters_done;
    p | pending;
  }
};

using charmtest::Harness;

TEST(LbManager, AtSyncRoundsResumeEveryone) {
  Harness h(4);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{4}); });
  h.machine.run();
  EXPECT_EQ(h.rt.lb().rounds_completed(), 5);
  for (int i = 0; i < 16; ++i) {
    Worker* w = nullptr;
    for (int pe = 0; pe < 4; ++pe) {
      auto* f = h.rt.collection(arr.id()).find(pe, IndexTraits<std::int32_t>::encode(i));
      if (f) w = static_cast<Worker*>(f);
    }
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->iters_done, 5);
  }
}

TEST(LbManager, PeriodicGreedyBalancesHeavyChares) {
  Harness h(4);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  // All heavy chares start on PE 0.
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
  EXPECT_GE(h.rt.lb().lb_invocations(), 2);
  // After balancing, counts per PE should be near-even.
  int max_count = 0;
  for (int pe = 0; pe < 4; ++pe)
    max_count = std::max(max_count,
                         static_cast<int>(h.rt.collection(arr.id()).local(pe).elems.size()));
  EXPECT_LE(max_count, 7);
  // Migrations were recorded in the history.
  int migs = 0;
  for (const auto& r : h.rt.lb().history()) migs += r.migrations;
  EXPECT_GT(migs, 0);
}

TEST(LbManager, LbImprovesMakespanOnImbalancedWork) {
  auto run = [](bool with_lb) {
    Harness h(8);
    auto arr = ArrayProxy<Worker>::create(h.rt);
    for (int i = 0; i < 64; ++i) arr.seed(i, i % 8);
    // Skew: chares on PE 0 are 6x heavier.
    for (auto& [ix, obj] : h.rt.collection(arr.id()).local(0).elems)
      static_cast<Worker*>(obj.get())->weight = 6.0;
    h.rt.lb().register_collection(arr.id());
    if (with_lb) {
      h.rt.lb().set_strategy(lb::make_greedy());
      h.rt.lb().set_period(2);
    }
    h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{10}); });
    h.machine.run();
    return h.machine.max_pe_clock();
  };
  const double t_nolb = run(false);
  const double t_lb = run(true);
  EXPECT_LT(t_lb, t_nolb * 0.75) << "LB should cut makespan on skewed load";
}

TEST(LbManager, DistributedModeAlsoImproves) {
  auto run = [](bool with_lb) {
    Harness h(8);
    auto arr = ArrayProxy<Worker>::create(h.rt);
    for (int i = 0; i < 64; ++i) arr.seed(i, i % 8);
    for (auto& [ix, obj] : h.rt.collection(arr.id()).local(0).elems)
      static_cast<Worker*>(obj.get())->weight = 6.0;
    h.rt.lb().register_collection(arr.id());
    if (with_lb) {
      h.rt.lb().use_distributed();
      h.rt.lb().set_period(2);
    }
    h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{10}); });
    h.machine.run();
    return h.machine.max_pe_clock();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(LbManager, MetaAdvisorTriggersOnlyWhenWorthIt) {
  auto advisor = lb::make_meta_advisor();
  std::vector<lb::RoundInfo> history;
  lb::RoundInfo balanced;
  balanced.round = 5;
  balanced.avg_load = 1.0;
  balanced.max_load = 1.05;
  EXPECT_FALSE(advisor(history, balanced));

  lb::RoundInfo skewed;
  skewed.round = 5;
  skewed.avg_load = 1.0;
  skewed.max_load = 2.0;
  EXPECT_TRUE(advisor(history, skewed));

  // Tiny imbalance whose gain cannot repay the cost: no trigger.
  lb::RoundInfo marginal;
  marginal.round = 5;
  marginal.avg_load = 1e-6;
  marginal.max_load = 1.3e-6;
  EXPECT_FALSE(advisor(history, marginal));
}

TEST(LbManager, SpeedAwareRebalancingUnderHeterogeneity) {
  // One PE at 0.5x; greedy must shift work off it (Fig 17 mechanism).
  Harness h(4);
  h.machine.pe(3).set_freq(0.5);
  auto arr = ArrayProxy<Worker>::create(h.rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(2);
  h.rt.on_pe(0, [&] { arr.broadcast<&Worker::step>(IterMsg{8}); });
  h.machine.run();
  const auto slow_count = h.rt.collection(arr.id()).local(3).elems.size();
  const auto fast_count = h.rt.collection(arr.id()).local(0).elems.size();
  EXPECT_LT(slow_count, fast_count);
}

class ResumeWorker : public charm::ArrayElement<ResumeWorker, std::int32_t> {
 public:
  static constexpr double kStepWork = 1e-3;
  static constexpr double kResumeWork = 4e-4;
  int pending = 0;

  void step(const IterMsg& m) {
    pending = m.remaining;
    charm::charge(kStepWork);
    at_sync();
  }
  void resume_from_sync() override {
    charm::charge(kResumeWork);
    if (pending > 0) {
      charm::ArrayProxy<ResumeWorker> self(collection_id());
      self[index()].send<&ResumeWorker::step>(IterMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
  }
};

TEST(LbManager, ResumeWorkCountsTowardNextRoundLoad) {
  // Work charged in resume_from_sync belongs to the element like any entry:
  // it lands in the next round's LB load and traces as an ep -1 entry span.
  Harness h(4);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  auto arr = ArrayProxy<ResumeWorker>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&ResumeWorker::step>(IterMsg{1}); });
  h.machine.run();
  ASSERT_EQ(h.rt.lb().rounds_completed(), 2);

  // at_sync snapshots mid-entry, so a step's own work lands after the reset:
  // the load pending after round 2 is step 2 plus the final resume (which
  // sends nothing).  Round 2's snapshot held step 1 plus resume 1, whose
  // span also covers the send of step 2.
  for (int i = 0; i < 8; ++i) {
    auto* w = h.find<ResumeWorker>(arr.id(), i);
    ASSERT_NE(w, nullptr);
    EXPECT_NEAR(w->measured_load(), ResumeWorker::kStepWork + ResumeWorker::kResumeWork,
                1e-12)
        << "element " << i;
    EXPECT_GT(w->round_load(), ResumeWorker::kStepWork + ResumeWorker::kResumeWork)
        << "element " << i;
  }

  std::size_t resume_spans = 0;
  for (const trace::Event& e : tracer.events()) {
    if (e.kind != trace::Kind::kEntry || e.b != charm::kResumeEntry) continue;
    EXPECT_EQ(e.a, arr.id());
    EXPECT_GE(e.end - e.begin, ResumeWorker::kResumeWork - 1e-12);
    ++resume_spans;
  }
  EXPECT_EQ(resume_spans, 8u * 2u) << "one resume span per element per round";
}

// Elements that leave in resume_from_sync: migrate_to and destroy_self run
// in the resume's entry frame, deferred to its end like in any entry.
class Leaver : public charm::ArrayElement<Leaver, std::int32_t> {
 public:
  static constexpr double kStepWork = 1e-3;
  static constexpr double kResumeWork = 4e-4;
  static constexpr int kNpes = 4;
  int payload = 0;
  bool hopped = false;

  void step(const IterMsg&) {
    charm::charge(kStepWork);
    at_sync();
  }
  void resume_from_sync() override {
    charm::charge(kResumeWork);
    if (index() % 2 == 1) {
      rt().destroy_self();
      return;
    }
    if (!hopped) {
      hopped = true;
      migrate_to((rt().my_pe() + 1) % kNpes);
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | payload;
    p | hopped;
  }
};

TEST(LbManager, MigrateToFromResumeLandsWithState) {
  Harness h(Leaver::kNpes);
  auto arr = ArrayProxy<Leaver>::create(h.rt);
  for (int i = 0; i < 8; i += 2) {
    arr.seed(i, i % Leaver::kNpes);
    h.find<Leaver>(arr.id(), i)->payload = 100 + i;
  }
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&Leaver::step>(IterMsg{0}); });
  h.machine.run();
  ASSERT_EQ(h.rt.lb().rounds_completed(), 1);
  EXPECT_EQ(h.rt.outstanding(), 0);
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 4);
  for (int i = 0; i < 8; i += 2) {
    int pe = -1;
    auto* w = h.find<Leaver>(arr.id(), i, &pe);
    ASSERT_NE(w, nullptr) << "element " << i;
    EXPECT_EQ(pe, (i % Leaver::kNpes + 1) % Leaver::kNpes) << "element " << i;
    EXPECT_EQ(w->payload, 100 + i);
    EXPECT_TRUE(w->hopped);
    // The frame closes before the element packs, so the resume's own work
    // travels with it.
    EXPECT_NEAR(w->measured_load(), Leaver::kStepWork + Leaver::kResumeWork, 1e-12)
        << "element " << i;
  }
}

TEST(LbManager, DestroySelfFromResumeRemovesTheElement) {
  Harness h(Leaver::kNpes);
  auto arr = ArrayProxy<Leaver>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % Leaver::kNpes);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&Leaver::step>(IterMsg{0}); });
  EXPECT_NO_THROW(h.machine.run());
  ASSERT_EQ(h.rt.lb().rounds_completed(), 1);
  EXPECT_EQ(h.rt.outstanding(), 0);
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 4);
  for (int i = 0; i < 8; ++i) {
    auto* w = h.find<Leaver>(arr.id(), i);
    if (i % 2 == 1) {
      EXPECT_EQ(w, nullptr) << "element " << i << " survived destroy_self";
    } else {
      ASSERT_NE(w, nullptr) << "element " << i;
      EXPECT_TRUE(w->hopped);
    }
  }
}

}  // namespace
