// Distributed k-ary spanning-tree collectives (DESIGN.md §10).
//
// The contract under test: switching RuntimeConfig::collectives from kFlat
// (the seed's centralized combine with a *modeled* tree wave) to kTree (real
// partial-combine messages routed up a k-ary spanning tree) changes message
// traffic and timing but NOT results — reduced values and completion order
// are bit-identical to the flat path for every arity, and broadcasts deliver
// exactly once to every live element, including around a failed interior PE
// (tree mode; flat mode drops that PE's subtree).
//
// The randomized fuzz sweeps (machine size x element placement x contribution
// order x op x arity) against the flat reference; the app-level determinism
// tests run the fig12 (Barnes-Hut) and fig14 (LULESH/AMPI) smoke analogs
// twice per arity and require identical fingerprints.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "ampi/ampi.hpp"
#include "ft/mem_checkpoint.hpp"
#include "miniapps/barnes/barnes.hpp"
#include "miniapps/lulesh/lulesh.hpp"
#include "runtime/charm.hpp"
#include "runtime/spanning_tree.hpp"

#include "test_util.hpp"

namespace {

using charm::ArrayProxy;
using charm::Callback;
using charm::ReduceOp;
using charm::ReductionResult;
using charm::SpanningTree;
using charmtest::Harness;

// ---- SpanningTree invariants ------------------------------------------------

TEST(SpanningTreeShape, ParentChildInverseFuzz) {
  std::mt19937 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    const int npes = 1 + static_cast<int>(rng() % 300);
    const int root = static_cast<int>(rng() % static_cast<unsigned>(npes));
    const int arity = 2 + static_cast<int>(rng() % 7);
    const SpanningTree t(npes, root, arity);
    for (int r = 0; r < npes; ++r) {
      // rel/abs are inverse bijections on [0, npes).
      ASSERT_EQ(t.rel(t.abs(r)), r);
      ASSERT_EQ(t.abs(t.rel(r)), r);
      // Every in-range child points back at its parent.
      for (int i = 1; i <= t.arity; ++i) {
        const long c = t.child(r, i);
        if (c < npes) {
          ASSERT_EQ(t.parent(static_cast<int>(c)), r);
        }
      }
      if (r > 0) {
        // The parent is one level up and counts this rank among its children.
        ASSERT_EQ(t.depth(r), t.depth(t.parent(r)) + 1);
        bool found = false;
        for (int i = 1; i <= t.arity; ++i)
          if (t.child(t.parent(r), i) == r) found = true;
        ASSERT_TRUE(found);
      }
    }
  }
}

TEST(SpanningTreeShape, EveryRankReachedExactlyOnce) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const int npes = 1 + static_cast<int>(rng() % 200);
    const int root = static_cast<int>(rng() % static_cast<unsigned>(npes));
    const int arity = 2 + static_cast<int>(rng() % 7);
    const SpanningTree t(npes, root, arity);
    std::vector<int> seen(static_cast<std::size_t>(npes), 0);
    std::vector<int> frontier{0};
    int max_depth = 0;
    while (!frontier.empty()) {
      const int r = frontier.back();
      frontier.pop_back();
      ++seen[static_cast<std::size_t>(r)];
      max_depth = std::max(max_depth, t.depth(r));
      for (int i = 1; i <= t.arity; ++i) {
        const long c = t.child(r, i);
        if (c < npes) frontier.push_back(static_cast<int>(c));
      }
    }
    for (int r = 0; r < npes; ++r)
      ASSERT_EQ(seen[static_cast<std::size_t>(r)], 1)
          << "rank " << r << " of " << npes << " arity " << arity;
    ASSERT_EQ(t.height(), max_depth);
  }
}

// ---- flat-vs-tree equivalence ----------------------------------------------

struct ValMsg {
  double v = 0;
  int op = 0;  ///< 0 = sum, 1 = min, 2 = max
  void pup(pup::Er& p) {
    p | v;
    p | op;
  }
};

struct StartMsg {
  int dummy = 0;
  void pup(pup::Er& p) { p | dummy; }
};

struct HopMsg {
  int to = 0;
  void pup(pup::Er& p) { p | to; }
};

class Fuzzer : public charm::ArrayElement<Fuzzer, std::int32_t> {
 public:
  int deliveries = 0;

  void go(const ValMsg& m) {
    const ReduceOp op = m.op == 0   ? ReduceOp::kSum
                        : m.op == 1 ? ReduceOp::kMin
                                    : ReduceOp::kMax;
    contribute(m.v, op, cb);
  }
  void go_vector(const ValMsg& m) {
    contribute(std::vector<double>{1.0, m.v}, ReduceOp::kSum, cb);
  }
  void go_gather(const ValMsg& m) {
    std::vector<double> mine{m.v};
    contribute_bytes(pup::to_bytes(mine), cb);
  }
  void go_barrier(const StartMsg&) { contribute(cb); }
  void count(const StartMsg&) { ++deliveries; }
  void hop(const HopMsg& m) { migrate_to(m.to); }
  void burst(const StartMsg&) {
    // Pipelined: three reductions launched back to back from one entry;
    // element order fixes each contribution's sequence number.
    contribute(static_cast<double>(index()), ReduceOp::kSum, cb);
    contribute(static_cast<double>(index()), ReduceOp::kMax, cb);
    contribute(static_cast<double>(index()), ReduceOp::kMin, cb);
  }

  static Callback cb;

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | deliveries;
  }
};

Callback Fuzzer::cb;

/// One randomized reduction workload: element homes, per-round values and
/// ops, and a shuffled per-round send order.  The same scenario replays
/// bit-identically under any topology.
struct Scenario {
  int npes = 4;
  int elements = 8;
  int rounds = 1;
  std::vector<int> homes;                 ///< element -> seed PE
  std::vector<std::vector<double>> vals;  ///< [round][element]
  std::vector<int> ops;                   ///< [round]
  std::vector<std::vector<int>> order;    ///< [round] shuffled element ids
};

Scenario random_scenario(std::mt19937& rng) {
  static const int kPes[] = {2, 3, 5, 8, 13, 16};
  Scenario s;
  s.npes = kPes[rng() % 6];
  s.elements = s.npes + static_cast<int>(rng() % static_cast<unsigned>(3 * s.npes));
  s.rounds = 1 + static_cast<int>(rng() % 3);
  std::uniform_int_distribution<int> val(-1000, 1000);
  for (int i = 0; i < s.elements; ++i)
    s.homes.push_back(static_cast<int>(rng() % static_cast<unsigned>(s.npes)));
  for (int r = 0; r < s.rounds; ++r) {
    s.ops.push_back(static_cast<int>(rng() % 3));
    std::vector<double> v;
    std::vector<int> ord(static_cast<std::size_t>(s.elements));
    for (int i = 0; i < s.elements; ++i) v.push_back(static_cast<double>(val(rng)));
    std::iota(ord.begin(), ord.end(), 0);
    std::shuffle(ord.begin(), ord.end(), rng);
    s.vals.push_back(std::move(v));
    s.order.push_back(std::move(ord));
  }
  return s;
}

struct Outcome {
  std::vector<double> results;  ///< one entry per completed round, in order
  std::uint64_t partial_sends = 0;
};

Outcome run_scenario(const Scenario& s, charm::RuntimeConfig cfg) {
  Harness h(s.npes, {}, cfg);
  auto arr = ArrayProxy<Fuzzer>::create(h.rt);
  for (int i = 0; i < s.elements; ++i) arr.seed(i, s.homes[static_cast<std::size_t>(i)]);
  Outcome out;
  Fuzzer::cb =
      Callback::to_function([&](ReductionResult&& r) { out.results.push_back(r.num(0)); });
  h.rt.on_pe(0, [&] {
    for (int r = 0; r < s.rounds; ++r)
      for (int i : s.order[static_cast<std::size_t>(r)])
        arr[i].send<&Fuzzer::go>(
            ValMsg{s.vals[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                   s.ops[static_cast<std::size_t>(r)]});
  });
  h.machine.run();
  out.partial_sends = h.rt.reduction_partials_sent();
  return out;
}

TEST(TreeReduction, RandomizedFuzzMatchesFlatEveryArity) {
  std::mt19937 rng(1729);
  for (int trial = 0; trial < 6; ++trial) {
    const Scenario s = random_scenario(rng);
    const Outcome flat = run_scenario(s, {});
    ASSERT_EQ(flat.results.size(), static_cast<std::size_t>(s.rounds));
    EXPECT_EQ(flat.partial_sends, 0u);
    for (int arity : {2, 4, 8}) {
      const Outcome tree = run_scenario(s, Harness::tree_config(arity));
      // Bit-identical values in bit-identical completion order.
      EXPECT_EQ(tree.results, flat.results)
          << "trial " << trial << " P=" << s.npes << " n=" << s.elements
          << " arity=" << arity;
      if (s.npes > 1) {
        EXPECT_GT(tree.partial_sends, 0u);
      }
    }
  }
}

TEST(TreeReduction, VectorSumMatchesFlat) {
  auto run = [](charm::RuntimeConfig cfg) {
    Harness h(5, {}, cfg);
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 17; ++i) arr.seed(i, i % 5);
    std::vector<double> result;
    Fuzzer::cb = Callback::to_function([&](ReductionResult&& r) { result = r.nums; });
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go_vector>(ValMsg{3.0, 0}); });
    h.machine.run();
    return result;
  };
  const std::vector<double> flat = run({});
  ASSERT_EQ(flat, (std::vector<double>{17.0, 51.0}));
  for (int arity : {2, 4, 8}) EXPECT_EQ(run(Harness::tree_config(arity)), flat);
}

TEST(TreeReduction, GatherCollectsEveryChunk) {
  // Chunk arrival order is topology-dependent (flat: contribution order;
  // tree: grouped per PE, combined level by level), so gathers compare as
  // multisets — exactly-once delivery of every element's bytes.
  auto run = [](charm::RuntimeConfig cfg) {
    Harness h(4, {}, cfg);
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 12; ++i) arr.seed(i, i % 4);
    std::vector<double> gathered;
    Fuzzer::cb = Callback::to_function([&](ReductionResult&& r) {
      for (auto& chunk : r.chunks) {
        std::vector<double> v;
        pup::from_bytes(chunk, v);
        gathered.insert(gathered.end(), v.begin(), v.end());
      }
    });
    h.rt.on_pe(0, [&] {
      for (int i = 0; i < 12; ++i) arr[i].send<&Fuzzer::go_gather>(ValMsg{double(i), 0});
    });
    h.machine.run();
    std::sort(gathered.begin(), gathered.end());
    return gathered;
  };
  const std::vector<double> flat = run({});
  ASSERT_EQ(flat.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(flat[static_cast<std::size_t>(i)], i);
  for (int arity : {2, 4, 8}) EXPECT_EQ(run(Harness::tree_config(arity)), flat);
}

TEST(TreeReduction, BarrierFiresExactlyOnce) {
  for (int arity : {2, 4, 8}) {
    Harness h(7, {}, Harness::tree_config(arity));
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 9; ++i) arr.seed(i, i % 7);
    int fired = 0;
    Fuzzer::cb = Callback::to_function([&](ReductionResult&&) { ++fired; });
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go_barrier>(StartMsg{}); });
    h.machine.run();
    EXPECT_EQ(fired, 1) << "arity " << arity;
  }
}

TEST(TreeReduction, PipelinedBurstsKeepSequenceOrder) {
  // Each element fires sum, max, min back to back; reduction n must complete
  // with reduction n's op, in order, exactly as the flat path sequences them.
  auto run = [](charm::RuntimeConfig cfg) {
    Harness h(3, {}, cfg);
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 6; ++i) arr.seed(i, i % 3);
    std::vector<double> results;
    Fuzzer::cb =
        Callback::to_function([&](ReductionResult&& r) { results.push_back(r.num(0)); });
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::burst>(StartMsg{}); });
    h.machine.run();
    return results;
  };
  const std::vector<double> flat = run({});
  ASSERT_EQ(flat, (std::vector<double>{15.0, 5.0, 0.0}));
  for (int arity : {2, 4, 8}) EXPECT_EQ(run(Harness::tree_config(arity)), flat);
}

TEST(TreeReduction, PartialSendsCountOnPathPesOnly) {
  // All PEs hold contributions: every PE but the root sends exactly one
  // partial.  Contributions from a single PE cost only that PE's root path.
  {
    Harness h(8, {}, Harness::tree_config(2));
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 8; ++i) arr.seed(i, i);
    double result = -1;
    Fuzzer::cb = Callback::to_function([&](ReductionResult&& r) { result = r.num(0); });
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go>(ValMsg{1.0, 0}); });
    h.machine.run();
    EXPECT_EQ(result, 8.0);
    EXPECT_EQ(h.rt.reduction_partials_sent(), 7u);
  }
  {
    // Elements only on PE 5: rel path 5 -> 2 -> 0 under arity 2, so two
    // partial hops — O(depth), not O(P).
    Harness h(8, {}, Harness::tree_config(2));
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 4; ++i) arr.seed(i, 5);
    double result = -1;
    Fuzzer::cb = Callback::to_function([&](ReductionResult&& r) { result = r.num(0); });
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go>(ValMsg{1.0, 0}); });
    h.machine.run();
    EXPECT_EQ(result, 4.0);
    EXPECT_EQ(h.rt.reduction_partials_sent(), 2u);
  }
}

TEST(TreeReduction, CallbackToBroadcastReachesEveryElement) {
  Harness h(4, {}, Harness::tree_config(2));
  auto arr = ArrayProxy<Fuzzer>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  Fuzzer::cb = arr.bcast_callback<&Fuzzer::count>();
  h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go_barrier>(StartMsg{}); });
  h.machine.run();
  for (int i = 0; i < 8; ++i) {
    auto* e = h.find<Fuzzer>(arr.id(), i);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->deliveries, 1);
  }
}

// ---- tree broadcast ---------------------------------------------------------

TEST(TreeBroadcast, DeliversExactlyOnceEveryArityAndRoot) {
  // Both topologies walk the same k-ary tree (arity = tree_fanout).
  for (const auto topo : {charm::CollectiveTopology::kFlat, charm::CollectiveTopology::kTree}) {
    for (int arity : {2, 4, 8}) {
      for (int root : {0, 5}) {
        charm::RuntimeConfig cfg;
        cfg.collectives = topo;
        cfg.tree_fanout = arity;
        Harness h(16, {}, cfg);
        auto arr = ArrayProxy<Fuzzer>::create(h.rt);
        for (int i = 0; i < 32; ++i) arr.seed(i, i % 16);
        h.rt.on_pe(root, [&] { arr.broadcast<&Fuzzer::count>(StartMsg{}); });
        h.machine.run();
        for (int i = 0; i < 32; ++i) {
          auto* e = h.find<Fuzzer>(arr.id(), i);
          ASSERT_NE(e, nullptr);
          EXPECT_EQ(e->deliveries, 1)
              << (topo == charm::CollectiveTopology::kTree ? "tree" : "flat") << " arity "
              << arity << " root " << root << " element " << i;
        }
      }
    }
  }
}

TEST(TreeBroadcast, RoutesAroundFailedInteriorPe) {
  // Kill rel rank 1 (an interior node under arity 2 with children 3 and 4):
  // under either topology the sender must skip it and descend directly, so
  // every element on a live PE still gets the broadcast exactly once while
  // the dead subtree root receives nothing.
  for (const auto topo : {charm::CollectiveTopology::kFlat, charm::CollectiveTopology::kTree}) {
    charm::RuntimeConfig cfg;
    cfg.collectives = topo;
    cfg.tree_fanout = 2;
    Harness h(16, {}, cfg);
    auto arr = ArrayProxy<Fuzzer>::create(h.rt);
    for (int i = 0; i < 32; ++i) arr.seed(i, i % 16);
    const int victim = 1;
    h.machine.fail_pe(victim);
    h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::count>(StartMsg{}); });
    h.machine.run();
    for (int i = 0; i < 32; ++i) {
      auto* e = h.find<Fuzzer>(arr.id(), i);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->deliveries, i % 16 == victim ? 0 : 1)
          << (topo == charm::CollectiveTopology::kTree ? "tree" : "flat") << " element " << i;
    }
  }
}

// ---- robustness: migration and FT rollback ----------------------------------

TEST(TreeReduction, MigrationMidReductionStillCompletesExactly) {
  // Half the elements contribute, one of the remaining elements migrates,
  // then the rest contribute: the parked partials and the mover's
  // contribution from its new PE must still combine to the exact total.
  Harness h(4, {}, Harness::tree_config(2));
  auto arr = ArrayProxy<Fuzzer>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  std::vector<double> results;
  Fuzzer::cb =
      Callback::to_function([&](ReductionResult&& r) { results.push_back(r.num(0)); });

  h.rt.on_pe(0, [&] {
    for (int i = 0; i < 4; ++i) arr[i].send<&Fuzzer::go>(ValMsg{double(10 + i), 0});
  });
  h.machine.run();  // four partials parked, reduction incomplete

  h.machine.resume();
  h.rt.on_pe(0, [&] { arr[6].send<&Fuzzer::hop>(HopMsg{0}); });
  h.machine.run();
  EXPECT_EQ(h.rt.collection(arr.id())
                .find(0, charm::IndexTraits<std::int32_t>::encode(6)),
            h.find<Fuzzer>(arr.id(), 6));

  h.machine.resume();
  h.rt.on_pe(0, [&] {
    for (int i = 4; i < 8; ++i) arr[i].send<&Fuzzer::go>(ValMsg{double(10 + i), 0});
  });
  h.machine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 10.0 * 8 + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(TreeReduction, RecoveryClearsParkedPartials) {
  // Regression for the clear_reductions leak: a rollback while per-PE
  // partials are parked mid-reduction must drop them, or the restored
  // elements' fresh round would combine stale values into the reused
  // sequence number and report a corrupted total.
  Harness h(4, {}, Harness::tree_config(2));
  auto arr = ArrayProxy<Fuzzer>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  charm::ft::MemCheckpointer ckpt(h.rt);
  std::vector<double> results;
  Fuzzer::cb =
      Callback::to_function([&](ReductionResult&& r) { results.push_back(r.num(0)); });

  bool checkpointed = false;
  h.rt.on_pe(0, [&] {
    ckpt.checkpoint(
        Callback::to_function([&](ReductionResult&&) { checkpointed = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(checkpointed);

  // Park partials: half the elements contribute large poison values.
  h.machine.resume();
  h.rt.on_pe(0, [&] {
    for (int i = 0; i < 4; ++i) arr[i].send<&Fuzzer::go>(ValMsg{1e6, 0});
  });
  h.machine.run();
  EXPECT_TRUE(results.empty());

  // Roll back to the checkpoint (restores every element's sequence number
  // and must clear the parked partials).
  bool recovered = false;
  h.machine.resume();
  h.rt.on_pe(0, [&] {
    ckpt.fail_and_recover(
        3, Callback::to_function([&](ReductionResult&&) { recovered = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);

  // A full fresh round must produce the exact sum — any surviving poison
  // partial would inflate it by 1e6.
  h.machine.resume();
  h.rt.on_pe(0, [&] { arr.broadcast<&Fuzzer::go>(ValMsg{1.0, 0}); });
  h.machine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 8.0);
}

// ---- whole-run determinism: fig12 / fig14 smoke analogs ----------------------

struct Fingerprint {
  double final_time = 0;
  double makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t partials = 0;
};

void expect_identical(const Fingerprint& a, const Fingerprint& b) {
  EXPECT_EQ(a.final_time, b.final_time);  // exact, not approximate
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.partials, b.partials);
}

Fingerprint take_fingerprint(Harness& h) {
  Fingerprint f;
  f.final_time = h.machine.time();
  f.makespan = h.machine.max_pe_clock();
  f.events = h.machine.events_processed();
  f.msgs = h.rt.messages_sent();
  f.bytes = h.rt.bytes_sent();
  f.partials = h.rt.reduction_partials_sent();
  return f;
}

Fingerprint run_barnes(int arity) {
  Harness h(8, {}, Harness::tree_config(arity));
  charm::barnes::Params p;
  p.pieces_per_dim = 2;
  p.nparticles = 256;
  charm::barnes::Simulation sim(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(2, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.total_bodies(), 256u);
  return take_fingerprint(h);
}

TEST(TreeDeterminism, BarnesRunsAreIdenticalPerArity) {
  // fig12 smoke analog on the tree topology: replays must be bit-identical,
  // and the up-sweep must actually be exercised.
  for (int arity : {2, 4, 8}) {
    const Fingerprint a = run_barnes(arity);
    const Fingerprint b = run_barnes(arity);
    expect_identical(a, b);
    EXPECT_GT(a.events, 0u);
    EXPECT_GT(a.partials, 0u) << "arity " << arity;
  }
}

Fingerprint run_lulesh(int arity, double* checksum) {
  Harness h(8, {}, Harness::tree_config(arity));
  charm::lulesh::Config cfg;
  cfg.ranks_per_dim = 2;
  cfg.elems_per_dim = 4;
  cfg.iterations = 4;
  cfg.migrate_every = 2;
  bool done = false;
  charm::lulesh::run(h.rt, cfg, charm::ampi::Options{}, [&](const charm::lulesh::Stats& s) {
    *checksum = s.checksum;
    done = true;
  });
  h.machine.run();
  EXPECT_TRUE(done);
  return take_fingerprint(h);
}

TEST(TreeDeterminism, LuleshRunsAreIdenticalPerArityWithFlatChecksum) {
  // fig14 smoke analog: bit-identical replays per arity.  The aggregate
  // checksum is an FP sum whose association order legitimately differs
  // between topologies, so it matches flat to rounding only; the timestep
  // control (an order-independent min-allreduce) keeps the physics itself
  // topology-independent.
  double flat_checksum = 0;
  {
    Harness h(8);
    charm::lulesh::Config cfg;
    cfg.ranks_per_dim = 2;
    cfg.elems_per_dim = 4;
    cfg.iterations = 4;
    cfg.migrate_every = 2;
    bool done = false;
    charm::lulesh::run(h.rt, cfg, charm::ampi::Options{}, [&](const charm::lulesh::Stats& s) {
      flat_checksum = s.checksum;
      done = true;
    });
    h.machine.run();
    ASSERT_TRUE(done);
  }
  for (int arity : {2, 4, 8}) {
    double ca = 0, cb = 0;
    const Fingerprint a = run_lulesh(arity, &ca);
    const Fingerprint b = run_lulesh(arity, &cb);
    expect_identical(a, b);
    EXPECT_EQ(ca, cb);  // replays: bit-exact
    EXPECT_NEAR(ca, flat_checksum, 1e-9 * std::abs(flat_checksum)) << "arity " << arity;
    EXPECT_GT(a.events, 0u);
  }
}

}  // namespace
