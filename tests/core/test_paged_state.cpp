// First-touch paged per-PE state (DESIGN.md §12): PagedTable invariants,
// randomized dense-vs-lazy machine equivalence, first-touch semantics under
// broadcast and reduction legs landing on never-touched PEs, and lazy-state
// interplay with fault injection and migration.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/charm.hpp"
#include "sim/machine.hpp"
#include "sim/paged_table.hpp"

#include "test_util.hpp"

namespace {

using charm::ArrayProxy;
using charm::Callback;
using charm::ReductionResult;
using charmtest::Harness;

// ---- PagedTable unit invariants ---------------------------------------------

TEST(PagedTable, ProbeAndDefaultReadNeverMaterialize) {
  sim::PagedTable<int> t(1000);
  EXPECT_EQ(t.touched(), 0u);
  EXPECT_EQ(t.pages_allocated(), 0u);
  EXPECT_EQ(t.probe(999), nullptr);
  EXPECT_EQ(t.at_or_default(500), 0);
  EXPECT_EQ(t.touched(), 0u);
  EXPECT_EQ(t.pages_allocated(), 0u);
}

TEST(PagedTable, RefMaterializesExactlyTheTouchedSlot) {
  sim::PagedTable<int> t(1000);
  t.ref(130) = 7;
  EXPECT_EQ(t.touched(), 1u);
  EXPECT_EQ(t.pages_allocated(), 1u);
  ASSERT_NE(t.probe(130), nullptr);
  EXPECT_EQ(*t.probe(130), 7);
  // Slot 131 shares 130's page but was never ref()'d: the census and the
  // probing accessors must not treat it as live.
  EXPECT_EQ(t.probe(131), nullptr);
  EXPECT_EQ(t.at_or_default(131), 0);
  EXPECT_EQ(t.touched(), 1u);
}

TEST(PagedTable, ForEachTouchedVisitsAscendingOrder) {
  sim::PagedTable<int> t(4096);
  const std::vector<std::size_t> order = {900, 3, 64, 63, 4095, 128, 2};
  for (std::size_t i : order) t.ref(i) = static_cast<int>(i);
  std::vector<std::size_t> seen;
  t.for_each_touched([&seen](std::size_t i, int v) {
    EXPECT_EQ(v, static_cast<int>(i));
    seen.push_back(i);
  });
  const std::vector<std::size_t> want = {2, 3, 63, 64, 128, 900, 4095};
  EXPECT_EQ(seen, want);
}

TEST(PagedTable, MaterializeAllTouchesEverySlot) {
  sim::PagedTable<int> t(130);
  t.materialize_all();
  EXPECT_EQ(t.touched(), 130u);
  EXPECT_EQ(t.pages_allocated(), 3u);  // ceil(130 / 64)
  for (std::size_t i = 0; i < 130; ++i) ASSERT_NE(t.probe(i), nullptr);
}

TEST(PagedTable, MemoryGrowsWithPagesNotLogicalSize) {
  sim::PagedTable<std::uint64_t> big(1 << 20);
  sim::PagedTable<std::uint64_t> small(64);
  small.materialize_all();
  big.ref(0);
  big.ref((1 << 20) - 1);
  // A million-slot table with two touched slots holds two pages plus the
  // pointer spine; it must not be within an order of magnitude of dense.
  const std::size_t dense = (std::size_t{1} << 20) * sizeof(std::uint64_t);
  EXPECT_LT(big.memory_bytes(), dense / 10);
  EXPECT_GE(big.memory_bytes(), 2 * small.memory_bytes() / 2);
  EXPECT_THROW(big.ref(1 << 20), std::out_of_range);
}

// ---- randomized dense-vs-lazy machine equivalence ---------------------------

std::uint64_t mix(std::uint64_t x) {
  // splitmix64: cheap deterministic per-hop randomness shared by both runs.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

sim::Handler hop_handler(sim::Machine& m, std::uint64_t s, int depth) {
  return [&m, s, depth] {
    m.charge(1e-7 * static_cast<double>(s % 97));
    if (depth > 0) {
      const std::uint64_t nxt = mix(s);
      m.send(static_cast<int>(nxt % static_cast<std::uint64_t>(m.npes())),
             nxt % 512, static_cast<int>(nxt % 4),
             hop_handler(m, nxt, depth - 1));
    }
  };
}

void seed_workload(sim::Machine& m, std::uint64_t seed) {
  for (int k = 0; k < 40; ++k) {
    const std::uint64_t s = mix(seed + static_cast<std::uint64_t>(k));
    m.post(static_cast<int>(s % static_cast<std::uint64_t>(m.npes())),
           1e-6 * static_cast<double>(s % 50), hop_handler(m, s, 5));
  }
}

TEST(PagedStateFuzz, LazyAndEagerMachinesAreObservationallyIdentical) {
  // Large enough that ~250 randomly scattered touches leave most 64-slot
  // pages unallocated (at 4K PEs every page gets hit and the byte comparison
  // below would be vacuous).
  constexpr int kPes = 1 << 16;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Machine lazy(sim::MachineConfig{kPes, {}, 4});
    sim::Machine dense(sim::MachineConfig{kPes, {}, 4});
    // The "dense" half eagerly materializes every PE up front, like the old
    // std::vector<Pe> table did; the workload itself is identical.
    for (int i = 0; i < kPes; ++i) dense.pe(i);
    ASSERT_EQ(dense.touched_pes(), static_cast<std::size_t>(kPes));

    seed_workload(lazy, seed);
    seed_workload(dense, seed);
    lazy.run();
    dense.run();

    EXPECT_EQ(lazy.events_processed(), dense.events_processed()) << seed;
    EXPECT_EQ(lazy.time(), dense.time()) << seed;
    EXPECT_EQ(lazy.max_pe_clock(), dense.max_pe_clock()) << seed;
    // Per-PE observables must be bitwise identical across every configured
    // PE — the const accessor reads untouched slots as the shared default.
    for (int i = 0; i < kPes; ++i) {
      const sim::Pe& a = static_cast<const sim::Machine&>(lazy).pe(i);
      const sim::Pe& b = static_cast<const sim::Machine&>(dense).pe(i);
      ASSERT_EQ(a.clock(), b.clock()) << "pe " << i << " seed " << seed;
      ASSERT_EQ(a.busy_time(), b.busy_time()) << "pe " << i << " seed " << seed;
      ASSERT_EQ(a.executed(), b.executed()) << "pe " << i << " seed " << seed;
    }
    // 40 chains x 6 hops cannot touch most of a 4096-PE machine: sparsity is
    // the point of paging, and reading the dense copy's state above must not
    // have materialized anything on the lazy one.
    EXPECT_GT(lazy.touched_pes(), 0u);
    EXPECT_LT(lazy.touched_pes(), static_cast<std::size_t>(kPes) / 4);
    EXPECT_LT(lazy.pe_state_bytes(), dense.pe_state_bytes());
  }
}

// ---- event-list footprint ----------------------------------------------------

/// Forwards itself to the next PE until it has visited every PE once.
struct ChainHop {
  sim::Machine* m;
  void operator()() {
    const int next = m->current_pe() + 1;
    if (next < m->npes()) m->send(next, 8, 0, ChainHop{m});
  }
};

TEST(PagedStateEventList, FootprintFollowsInFlightEventsNotTouchedPes) {
  // A chain touches every PE of a 65,536-PE machine with one event in
  // flight at a time, so the event list needs one 256-event arena chunk and
  // heap and free-list vectors of a key or two — not storage sized by the
  // touched-PE count.
  constexpr int kPes = 1 << 16;
  sim::Machine m(sim::MachineConfig{kPes, {}, 4});
  m.post(0, 0.0, ChainHop{&m});
  m.run();
  EXPECT_EQ(m.touched_pes(), static_cast<std::size_t>(kPes));
  EXPECT_EQ(m.events_processed(), 2u * kPes) << "one arrival and one wake-up per PE";
  const std::size_t chunk = 256 * sizeof(sim::Event);
  EXPECT_GE(m.event_queue_bytes(), chunk);
  EXPECT_LE(m.event_queue_bytes(), chunk + 1024);
}

// ---- first-touch semantics under broadcast / reduction ----------------------

struct PokeMsg {
  int v = 0;
  void pup(pup::Er& p) { p | v; }
};

class Sparse : public charm::ArrayElement<Sparse, std::int32_t> {
 public:
  int received = 0;
  static Callback done;
  void poke(const PokeMsg&) { ++received; }
  void reduce(const PokeMsg&) { contribute(1.0, charm::ReduceOp::kSum, done); }
  void hop_far(const PokeMsg&) { migrate_to(900); }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | received;
  }
};
Callback Sparse::done;

TEST(PagedStateRuntime, BroadcastLegsOnEmptyPesLeaveCollectionUnpaged) {
  Harness h(64);
  auto arr = ArrayProxy<Sparse>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i);
  h.machine.run();
  const std::size_t paged_before = h.rt.collection(arr.id()).pe.touched();
  // Hosting PEs plus hashed home PEs: a strict subset of the machine.
  EXPECT_LT(paged_before, 64u);

  h.rt.on_pe(0, [&] { arr.broadcast<&Sparse::poke>(PokeMsg{1}); });
  h.machine.run();
  // Every element got the broadcast...
  for (int i = 0; i < 8; ++i) {
    auto* e = h.find<Sparse>(arr.id(), i);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->received, 1);
  }
  // ...and the legs that landed on element-free PEs (the PE-level spanning
  // fan-out does reach all 64) probed instead of paging collection state.
  EXPECT_EQ(h.rt.collection(arr.id()).pe.touched(), paged_before);
  EXPECT_EQ(h.machine.touched_pes(), 64u);
}

TEST(PagedStateRuntime, ReductionOverSparseElementsStaysSparseFlatAndTree) {
  for (const bool tree : {false, true}) {
    Harness h(64, {}, tree ? Harness::tree_config(2) : charm::RuntimeConfig{});
    auto arr = ArrayProxy<Sparse>::create(h.rt);
    for (int i = 0; i < 8; ++i) arr.seed(i, i * 3);
    double sum = -1;
    Sparse::done =
        Callback::to_function([&sum](ReductionResult&& r) { sum = r.num(0); });
    h.rt.on_pe(0, [&] { arr.broadcast<&Sparse::reduce>(PokeMsg{}); });
    h.machine.run();
    EXPECT_EQ(sum, 8.0) << (tree ? "tree" : "flat");
    EXPECT_LT(h.rt.collection(arr.id()).pe.touched(), 64u)
        << (tree ? "tree" : "flat");
  }
}

// ---- fault injection on unmaterialized PEs ----------------------------------

TEST(PagedStateFaults, FailPeOnUnmaterializedPeQuarantinesIt) {
  sim::Machine m(sim::MachineConfig{256, {}, 4});
  ASSERT_EQ(m.touched_pes(), 0u);
  m.fail_pe(200);
  // Failing must materialize exactly the victim so the flag persists...
  EXPECT_EQ(m.touched_pes(), 1u);
  EXPECT_TRUE(m.pe_failed(200));
  // ...while reviving a never-touched PE stays a no-op (alive by default).
  m.revive_pe(100);
  EXPECT_EQ(m.touched_pes(), 1u);
  EXPECT_FALSE(m.pe_failed(100));

  // An arrival at the quarantined PE is disposed: no execution, no clock.
  bool ran = false;
  m.post(200, 0.0, [&ran] { ran = true; });
  m.run();
  EXPECT_TRUE(ran);  // drop policy runs the handler in a zero-cost context
  EXPECT_EQ(m.messages_dropped(), 1u);
  EXPECT_EQ(static_cast<const sim::Machine&>(m).pe(200).clock(), 0.0);
  EXPECT_EQ(static_cast<const sim::Machine&>(m).pe(200).executed(), 0u);
}

// ---- migration onto a never-touched PE --------------------------------------

TEST(PagedStateMigration, MigrateOntoNeverTouchedPeMaterializesOnArrival) {
  Harness h(1024);
  auto arr = ArrayProxy<Sparse>::create(h.rt);
  arr.seed(0, 0);
  h.machine.run();
  ASSERT_EQ(h.rt.collection(arr.id()).pe.probe(900), nullptr);

  h.rt.on_pe(0, [&] { arr[0].send<&Sparse::hop_far>(PokeMsg{}); });
  h.machine.run();
  int owner = -1;
  auto* e = h.find<Sparse>(arr.id(), 0, &owner);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(owner, 900);
  EXPECT_NE(h.rt.collection(arr.id()).pe.probe(900), nullptr);

  // The migrated element still receives point sends routed via its home.
  h.rt.on_pe(0, [&] { arr[0].send<&Sparse::poke>(PokeMsg{}); });
  h.machine.run();
  EXPECT_EQ(e->received, 1);
  // A 1024-PE machine hosting one chare: the census stays a handful of PEs
  // (source, destination, home, control path), nowhere near configured P.
  EXPECT_LT(h.machine.touched_pes(), 64u);
}

}  // namespace
