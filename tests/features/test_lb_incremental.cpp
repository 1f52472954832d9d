// Incremental LB decision loop oracles (DESIGN.md §13).
//
// The load database must stay bit-identical to a from-scratch gather after
// ANY churn sequence — load updates, migrations, dynamic insert/destroy,
// checkpoint-restore sweeps and shrink/expand — and every strategy must pick
// exactly the migrations the pre-database algorithms in lb_reference.hpp
// pick, from a snapshot's maintained index and from index_of's.
// Everything here compares with ==, never with tolerances: the contract is
// byte-stability of every checked-in benchmark figure.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "ft/mem_checkpoint.hpp"
#include "lb/load_db.hpp"
#include "runtime/charm.hpp"

#include "lb_reference.hpp"
#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- exact-compare helpers ---------------------------------------------------

::testing::AssertionResult chares_equal(const std::vector<lb::ChareInfo>& a,
                                        const std::vector<lb::ChareInfo>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "chare count " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const lb::ChareInfo& x = a[i];
    const lb::ChareInfo& y = b[i];
    if (x.col != y.col || !(x.idx == y.idx))
      return ::testing::AssertionFailure() << "identity mismatch at rank " << i;
    if (x.pe != y.pe)
      return ::testing::AssertionFailure()
             << "pe mismatch at rank " << i << ": " << x.pe << " vs " << y.pe;
    if (x.work != y.work)
      return ::testing::AssertionFailure()
             << "work mismatch at rank " << i << ": " << x.work << " vs " << y.work;
    if (x.migratable != y.migratable)
      return ::testing::AssertionFailure() << "migratable mismatch at rank " << i;
    if (x.coords != y.coords)
      return ::testing::AssertionFailure() << "coords mismatch at rank " << i;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult migs_equal(const std::vector<lb::Migration>& a,
                                      const std::vector<lb::Migration>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "migration count " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].col != b[i].col || !(a[i].idx == b[i].idx) || a[i].from != b[i].from ||
        a[i].to != b[i].to)
      return ::testing::AssertionFailure()
             << "migration " << i << " differs: (" << a[i].idx.a << "," << a[i].idx.b
             << ") " << a[i].from << "->" << a[i].to << " vs (" << b[i].idx.a << ","
             << b[i].idx.b << ") " << b[i].from << "->" << b[i].to;
  }
  return ::testing::AssertionSuccess();
}

/// Recomputes every aux field from the chare list alone (same fold orders the
/// database uses) and compares exactly.
void expect_index_matches_fold(const lb::Stats& st, const lb::StatsAux& aux) {
  ASSERT_TRUE(aux.valid);

  std::vector<int> pes;
  for (const auto& c : st.chares) pes.push_back(c.pe);
  std::sort(pes.begin(), pes.end());
  pes.erase(std::unique(pes.begin(), pes.end()), pes.end());
  EXPECT_EQ(aux.pes, pes);

  double total = 0.0;
  for (const auto& c : st.chares) total += c.work;
  EXPECT_EQ(aux.total_work, total);

  ASSERT_EQ(aux.bucket_off.size(), pes.size() + 1);
  ASSERT_EQ(aux.done_all.size(), pes.size());
  ASSERT_EQ(aux.done_nonmig.size(), pes.size());
  for (std::size_t k = 0; k < pes.size(); ++k) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t r = 0; r < st.chares.size(); ++r)
      if (st.chares[r].pe == pes[k]) want.push_back(r);
    const std::vector<std::uint32_t> got(aux.bucket_ranks.begin() + aux.bucket_off[k],
                                         aux.bucket_ranks.begin() + aux.bucket_off[k + 1]);
    EXPECT_EQ(got, want) << "bucket for pe " << pes[k];
    const double sp = st.pe_speed[static_cast<std::size_t>(pes[k])];
    double da = 0.0;
    double dn = 0.0;
    for (std::uint32_t r : want) {
      da += st.chares[r].work / sp;
      if (!st.chares[r].migratable) dn += st.chares[r].work / sp;
    }
    EXPECT_EQ(aux.done_all[k], da) << "done_all for pe " << pes[k];
    EXPECT_EQ(aux.done_nonmig[k], dn) << "done_nonmig for pe " << pes[k];
  }

  std::vector<std::uint32_t> desc;
  for (std::uint32_t r = 0; r < st.chares.size(); ++r)
    if (st.chares[r].migratable) desc.push_back(r);
  std::sort(desc.begin(), desc.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (st.chares[x].work != st.chares[y].work)
      return st.chares[x].work > st.chares[y].work;
    return x < y;
  });
  EXPECT_EQ(aux.desc_by_work, desc);
}

/// Both the Stats' own index and the one lb::index_of builds match the fold.
void expect_aux_consistent(const lb::Stats& st) {
  expect_index_matches_fold(st, st.aux);
  SCOPED_TRACE("index_of");
  expect_index_matches_fold(st, lb::index_of(st));
}

/// Every strategy must decide exactly as its pre-database algorithm in
/// lb_reference.hpp, both from the Stats' own index and from the same chare
/// list with the index cleared (a hand-built Stats, indexed by index_of).
void expect_reference_decisions(const lb::Stats& st) {
  lb::Stats hand = st;
  hand.aux = lb::StatsAux{};
  const auto check = [&](const char* name, std::unique_ptr<lb::Strategy> strat,
                         const std::vector<lb::Migration>& want) {
    EXPECT_TRUE(migs_equal(strat->assign(st), want)) << "strategy " << name;
    EXPECT_TRUE(migs_equal(strat->assign(hand), want)) << "strategy " << name << ", hand-built";
  };
  check("greedy", lb::make_greedy(), lbref::greedy(st));
  check("refine(1.05)", lb::make_refine(1.05), lbref::refine(st, 1.05));
  check("refine(1.4)", lb::make_refine(1.4), lbref::refine(st, 1.4));
  check("hybrid", lb::make_hybrid(), lbref::hybrid(st));
}

/// True when some chare is hosted at or above `st.npes` (a shrink round).
bool hosts_beyond_npes(const lb::Stats& st) {
  return std::any_of(st.chares.begin(), st.chares.end(),
                     [&](const lb::ChareInfo& c) { return c.pe >= st.npes; });
}

// ---- SpeedMap exactness ------------------------------------------------------

TEST(SpeedMap, ReadsMatchDenseVector) {
  const std::vector<double> dense{1.0, 0.5, 1.0, 2.0, 0.3};
  lb::SpeedMap sm = lbref::speed_map(dense);
  for (std::size_t pe = 0; pe < dense.size(); ++pe) EXPECT_EQ(sm[pe], dense[pe]);
  EXPECT_EQ(sm[dense.size() + 7], 1.0);  // beyond the dense range: default
  EXPECT_EQ(sm.entries().size(), 3u);    // only the non-unit speeds are stored
}

TEST(SpeedMap, SetAndUnsetStaySparse) {
  lb::SpeedMap sm;
  sm.set(5, 0.5);
  sm.set(2, 2.0);
  EXPECT_EQ(sm[2], 2.0);
  EXPECT_EQ(sm[5], 0.5);
  EXPECT_EQ(sm.entries().size(), 2u);
  sm.set(5, 1.0);  // back to default erases the entry
  EXPECT_EQ(sm[5], 1.0);
  EXPECT_EQ(sm.entries().size(), 1u);
}

TEST(SpeedMap, SumFirstMatchesAccumulateBitwise) {
  const std::array<double, 8> pool{1.0, 1.0, 1.0, 1.0, 0.5, 0.25, 2.0, 0.3};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    std::vector<double> dense(static_cast<std::size_t>(mix(seed) % 24));
    for (std::size_t i = 0; i < dense.size(); ++i)
      dense[i] = pool[mix(seed ^ (i + 1)) % pool.size()];
    const lb::SpeedMap sm = lbref::speed_map(dense);
    // Also probe past the dense range, where the map extends with 1.0 runs.
    std::vector<double> ext = dense;
    ext.resize(dense.size() + 5, 1.0);
    for (std::size_t n = 0; n <= ext.size(); ++n) {
      const double want = std::accumulate(ext.begin(), ext.begin() + n, 0.0);
      EXPECT_EQ(sm.sum_first(static_cast<int>(n)), want)
          << "seed " << seed << " n " << n;
    }
  }
}

// ---- standalone LoadDb churn fuzz vs a shadow model --------------------------

struct ShadowEntry {
  CollectionId col = 0;
  ObjIndex idx{};
  int pe = 0;
  double raw = 0;
  bool elem_mig = true;
  std::array<double, 3> coords{};
  std::uint32_t slot = lb::LoadDb::kNoSlot;
};

lb::Stats reference_stats(const std::vector<ShadowEntry>& live, int npes,
                          const lb::SpeedMap& sp) {
  lb::Stats s;
  s.npes = npes;
  s.pe_speed = sp;
  for (const ShadowEntry& e : live) {
    lb::ChareInfo c;
    c.col = e.col;
    c.idx = e.idx;
    c.pe = e.pe;
    c.work = e.raw * sp[static_cast<std::size_t>(e.pe)];
    c.migratable = e.elem_mig;
    c.coords = e.coords;
    s.chares.push_back(c);
  }
  std::sort(s.chares.begin(), s.chares.end(),
            [](const lb::ChareInfo& a, const lb::ChareInfo& b) {
              if (a.col != b.col) return a.col < b.col;
              if (a.idx.a != b.idx.a) return a.idx.a < b.idx.a;
              return a.idx.b < b.idx.b;
            });
  return s;
}

void run_churn_fuzz(std::uint64_t seed) {
  constexpr int kMaxPe = 8;
  const std::array<double, 4> freqs{1.0, 0.5, 0.25, 2.0};  // dyadic: exact sums
  lb::LoadDb db;
  std::vector<ShadowEntry> live;
  std::map<int, double> speeds;
  std::uint64_t key = 0;
  std::uint64_t ctr = 0;
  int shrink_rounds = 0;
  const auto rnd = [&] { return mix(seed ^ ++ctr); };
  // Dyadic loads (k/256) keep every per-PE sum exact, so the shadow model can
  // compare round aggregates with == regardless of accumulation order.
  const auto dyadic_load = [&] { return static_cast<double>(rnd() % 1024) / 256.0; };

  for (int round = 0; round < 36; ++round) {
    // Every few rounds restrict churn to load updates and DVFS events: with no
    // membership change AND the previous snapshot recycled below, these rounds
    // take the patched-copy path instead of the full rebuild/copy path.
    const bool steady = round % 4 == 1;
    const int ops = 1 + static_cast<int>(rnd() % 40);
    for (int op = 0; op < ops; ++op) {
      int sel = static_cast<int>(rnd() % 100);
      if (steady) sel = sel < 70 ? sel % 30 : 85 + sel % 8;
      if (sel < 30 && !live.empty()) {  // AtSync load update
        ShadowEntry& e = live[rnd() % live.size()];
        e.raw = dyadic_load();
        db.update_load(e.slot, e.raw);
      } else if (sel < 55) {  // creation
        ShadowEntry e;
        e.col = static_cast<CollectionId>(rnd() % 2);
        e.idx = ObjIndex{++key, rnd() % 4};
        e.pe = static_cast<int>(rnd() % kMaxPe);
        e.raw = dyadic_load();
        e.elem_mig = rnd() % 8 != 0;
        e.coords = {static_cast<double>(key), static_cast<double>(e.pe), 0.0};
        e.slot = db.add(e.col, e.idx, e.pe, e.raw, e.elem_mig, /*col_migratable=*/true,
                        e.coords, /*elem=*/nullptr);
        live.push_back(e);
      } else if (sel < 70 && !live.empty()) {  // destruction
        const std::size_t i = rnd() % live.size();
        db.remove(live[i].slot);
        live[i] = live.back();
        live.pop_back();
      } else if (sel < 85 && !live.empty()) {  // migration: remove + fresh slot
        ShadowEntry& e = live[rnd() % live.size()];
        db.remove(e.slot);
        e.pe = static_cast<int>(rnd() % kMaxPe);
        e.slot = db.add(e.col, e.idx, e.pe, e.raw, e.elem_mig, true, e.coords, nullptr);
      } else if (sel < 93) {  // DVFS event
        const int pe = static_cast<int>(rnd() % kMaxPe);
        const double f = freqs[rnd() % freqs.size()];
        if (f == 1.0)
          speeds.erase(pe);
        else
          speeds[pe] = f;
      }
    }
    ASSERT_EQ(db.size(), static_cast<std::int64_t>(live.size()));

    lb::SpeedMap sp;
    for (const auto& [pe, f] : speeds) sp.set(pe, f);
    const int npes = 1 + static_cast<int>(rnd() % kMaxPe);  // sometimes < max pe

    // Round statistics before the snapshot (round_complete reads them first).
    const lb::LoadDb::RoundAggregates agg = db.round_aggregates(npes, sp);
    {
      std::vector<double> per_pe(static_cast<std::size_t>(kMaxPe), 0.0);
      for (const ShadowEntry& e : live) per_pe[static_cast<std::size_t>(e.pe)] += e.raw;
      double mx = 0.0;
      double sum = 0.0;
      double work = 0.0;
      for (int pe = 0; pe < kMaxPe; ++pe) {
        work += per_pe[static_cast<std::size_t>(pe)] * sp[static_cast<std::size_t>(pe)];
        if (pe >= npes) continue;
        sum += per_pe[static_cast<std::size_t>(pe)];
        mx = std::max(mx, per_pe[static_cast<std::size_t>(pe)]);
      }
      EXPECT_EQ(agg.max_load, mx) << "round " << round;
      EXPECT_EQ(agg.avg_load, sum / npes) << "round " << round;
      EXPECT_EQ(agg.avg_work, work / npes) << "round " << round;
    }

    lb::Stats st = db.snapshot(npes, sp);
    const lb::Stats ref = reference_stats(live, npes, sp);
    ASSERT_TRUE(chares_equal(st.chares, ref.chares)) << "round " << round;
    EXPECT_TRUE(st.pe_speed == sp);
    EXPECT_EQ(st.npes, npes);
    expect_aux_consistent(st);
    expect_reference_decisions(st);
    if (hosts_beyond_npes(st)) ++shrink_rounds;

    if (round % 7 == 3) {  // snapshots with no intervening churn are idempotent
      const lb::Stats st_copy = st;
      // Recycling first makes the second snapshot patch the buffer in place
      // (zero changed chares) — it must still equal the full-copy snapshot.
      db.recycle(std::move(st));
      lb::Stats again = db.snapshot(npes, sp);
      ASSERT_TRUE(chares_equal(again.chares, st_copy.chares));
      EXPECT_EQ(again.aux.desc_by_work, st_copy.aux.desc_by_work);
      EXPECT_EQ(again.aux.total_work, st_copy.aux.total_work);
      db.recycle(std::move(again));
    } else {
      // Hand the buffer back the way the LB manager does each round, so the
      // next snapshot exercises the generation-tagged patch path whenever the
      // round happened to have no membership churn.
      db.recycle(std::move(st));
    }
  }
  EXPECT_GT(db.counters().snapshots, 0);
  EXPECT_GT(db.counters().structural_rebuilds, 0);
  EXPECT_GT(db.counters().dirty_flushed, 0);
  EXPECT_GT(db.counters().patched_copies, 0)
      << "steady rounds should have exercised the patched-copy path";
  EXPECT_GT(shrink_rounds, 0) << "some rounds should have npes below a hosting PE";
}

TEST(LoadDbFuzz, ChurnMatchesRebuildBitwise) {
  for (std::uint64_t seed : {0x1234ull, 0xbeefull, 0x77aa55ull}) {
    SCOPED_TRACE(seed);
    run_churn_fuzz(seed);
  }
}

TEST(LoadDbFuzz, EmptyAndRefilledDatabase) {
  lb::LoadDb db;
  const lb::SpeedMap sp;
  lb::Stats st = db.snapshot(4, sp);
  EXPECT_TRUE(st.chares.empty());
  EXPECT_TRUE(st.aux.pes.empty());
  EXPECT_EQ(st.aux.total_work, 0.0);
  const auto agg0 = db.round_aggregates(4, sp);
  EXPECT_EQ(agg0.max_load, 0.0);
  EXPECT_EQ(agg0.avg_load, 0.0);

  // Fill, drain completely, refill with free-list reuse: slot recycling must
  // not leak stale cache entries into the next snapshot.
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 16; ++i)
    slots.push_back(db.add(0, ObjIndex{i, 0}, static_cast<int>(i % 4),
                           static_cast<double>(i) / 4.0, true, true, {}, nullptr));
  (void)db.snapshot(4, sp);
  for (std::uint32_t s : slots) db.remove(s);
  st = db.snapshot(4, sp);
  EXPECT_TRUE(st.chares.empty());
  EXPECT_EQ(db.size(), 0);
  for (std::uint64_t i = 100; i < 110; ++i)
    db.add(0, ObjIndex{i, 0}, 1, 0.5, true, true, {}, nullptr);
  st = db.snapshot(4, sp);
  EXPECT_EQ(st.chares.size(), 10u);
  expect_aux_consistent(st);
}

TEST(LoadDb, AddThenRemoveBetweenSnapshotsNeverSurfaces) {
  lb::LoadDb db;
  const lb::SpeedMap sp;
  db.add(0, ObjIndex{1, 0}, 0, 1.0, true, true, {}, nullptr);
  const std::uint32_t ghost = db.add(0, ObjIndex{2, 0}, 1, 2.0, true, true, {}, nullptr);
  db.remove(ghost);  // lived and died between snapshots
  const lb::Stats st = db.snapshot(2, sp);
  ASSERT_EQ(st.chares.size(), 1u);
  EXPECT_EQ(st.chares[0].idx.a, 1u);
  expect_aux_consistent(st);
}

// ---- runtime-level oracles ---------------------------------------------------

struct IterMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

}  // namespace

namespace pup {
/// One int field, no padding: a single memcpy is the exact field walk.
template <>
struct MemCopyable<IterMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup

namespace {

/// AtSync worker with hash-driven dyadic loads; optionally migrates itself
/// mid-protocol (deferred to handler end, i.e. after its sync was counted).
template <bool SelfMigrate>
class ChurnWorkerT : public charm::ArrayElement<ChurnWorkerT<SelfMigrate>, std::int32_t> {
 public:
  int pending = 0;
  int iters = 0;

  void step(const IterMsg& m) {
    pending = m.remaining;
    const std::uint64_t r = mix(0x51ull ^ (static_cast<std::uint64_t>(this->index()) << 16) ^
                                static_cast<std::uint64_t>(m.remaining));
    charm::charge(static_cast<double>(r % 512 + 1) / 4096.0);
    ++iters;
    if (SelfMigrate && (r >> 16) % 4 == 0)
      this->migrate_to(static_cast<int>((r >> 24) %
                                        static_cast<std::uint64_t>(charm::Runtime::current().npes())));
    this->at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      charm::ArrayProxy<ChurnWorkerT> self(this->collection_id());
      self[this->index()].template send<&ChurnWorkerT::step>(IterMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
    p | iters;
  }
};

using MigWorker = ChurnWorkerT<true>;
using SteadyWorker = ChurnWorkerT<false>;

void expect_snapshot_matches_reference(Runtime& rt, CollectionId col) {
  lb::Stats snap = rt.lb().snapshot_stats(rt.active_pes());
  const lb::Stats ref = lbref::rebuild_stats(rt, {col}, rt.active_pes());
  EXPECT_EQ(snap.npes, ref.npes);
  EXPECT_TRUE(snap.pe_speed == ref.pe_speed);
  ASSERT_TRUE(chares_equal(snap.chares, ref.chares));
  expect_aux_consistent(snap);
  expect_reference_decisions(snap);
}

TEST(IncrementalOracle, SelfMigrationChurnMatchesRebuild) {
  Harness h(6);
  h.machine.pe(5).set_freq(0.5);
  h.machine.pe(2).set_freq(2.0);
  auto arr = ArrayProxy<MigWorker>::create(h.rt);
  for (int i = 0; i < 24; ++i) arr.seed(i, i % 6);
  h.rt.lb().register_collection(arr.id());
  int checks = 0;
  // The advisor runs at the round barrier — every element synced, nothing
  // migrating — which is exactly where snapshot and rebuild must agree.
  h.rt.lb().set_advisor([&](const std::vector<lb::RoundInfo>&, const lb::RoundInfo&) {
    expect_snapshot_matches_reference(h.rt, arr.id());
    ++checks;
    return false;
  });
  h.rt.on_pe(0, [&] { arr.broadcast<&MigWorker::step>(IterMsg{11}); });
  h.machine.run();
  EXPECT_EQ(h.rt.lb().rounds_completed(), 12);
  EXPECT_EQ(checks, 12);
  const auto& ctr = h.rt.lb().db_counters();
  EXPECT_GE(ctr.adds, 24);
  EXPECT_GT(ctr.removes, 0) << "self-migrations should have churned slots";
}

TEST(IncrementalOracle, StrategyRoundsKeepDatabaseConsistent) {
  Harness h(8);
  h.machine.pe(7).set_freq(0.5);
  auto arr = ArrayProxy<SteadyWorker>::create(h.rt);
  // Skewed start so refine has real work to move.
  for (int i = 0; i < 32; ++i) arr.seed(i, i < 16 ? 0 : i % 8);
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_refine(1.05));
  int checks = 0;
  h.rt.lb().set_advisor([&](const std::vector<lb::RoundInfo>&, const lb::RoundInfo& cur) {
    expect_snapshot_matches_reference(h.rt, arr.id());
    ++checks;
    return cur.round % 2 == 0;  // balance every other round
  });
  h.rt.on_pe(0, [&] { arr.broadcast<&SteadyWorker::step>(IterMsg{9}); });
  h.machine.run();
  EXPECT_EQ(h.rt.lb().rounds_completed(), 10);
  EXPECT_EQ(checks, 10);
  EXPECT_GE(h.rt.lb().lb_invocations(), 5);
  int migrations = 0;
  for (const auto& r : h.rt.lb().history()) migrations += r.migrations;
  EXPECT_GT(migrations, 0) << "LB-driven migrations must flow through the db hooks";
}

struct SpawnMsg {
  std::int32_t parent = 0;
  void pup(pup::Er& p) { p | parent; }
};
struct PhaseMsg {
  int phase = 0;
  void pup(pup::Er& p) { p | phase; }
};

}  // namespace

namespace pup {
template <>
struct MemCopyable<SpawnMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(std::int32_t);
};
template <>
struct MemCopyable<PhaseMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup

namespace {

/// Message-driven churn with no AtSync protocol: migrations, dynamic inserts
/// (spawned elements get indexes >= 100) and destroys, all hash-decided.
class DynWorker : public charm::ArrayElement<DynWorker, std::int32_t> {
 public:
  DynWorker() = default;
  explicit DynWorker(const SpawnMsg&) {}

  void prime(const PhaseMsg&) {  // one clean round to set nonzero round loads
    const std::uint64_t r = mix(0x77ull ^ static_cast<std::uint64_t>(index()));
    charm::charge(static_cast<double>(r % 512 + 1) / 4096.0);
    at_sync();
  }
  void kick(const PhaseMsg& m) {
    const std::uint64_t r = mix(0xabcdull ^ (static_cast<std::uint64_t>(index()) << 10) ^
                                static_cast<std::uint64_t>(m.phase));
    const auto npes = static_cast<std::uint64_t>(charm::Runtime::current().npes());
    const int sel = static_cast<int>(r % 100);
    if (sel < 20 && index() >= 100) {
      charm::Runtime::current().destroy_self();
      return;
    }
    if (sel < 50) migrate_to(static_cast<int>((r >> 8) % npes));
    if (sel >= 50 && sel < 75 && index() < 16) {
      charm::ArrayProxy<DynWorker> self(collection_id());
      self.insert(100 + index() * 8 + m.phase, SpawnMsg{index()},
                  static_cast<int>((r >> 16) % npes));
    }
  }
  void pup(pup::Er& p) override { ArrayElementBase::pup(p); }
};

TEST(IncrementalOracle, InsertDestroyChurnMatchesRebuild) {
  Harness h(4);
  h.machine.pe(1).set_freq(0.5);
  auto arr = ArrayProxy<DynWorker>::create(h.rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&DynWorker::prime>(PhaseMsg{}); });
  h.machine.run();
  EXPECT_EQ(h.rt.lb().rounds_completed(), 1);
  expect_snapshot_matches_reference(h.rt, arr.id());
  for (int phase = 0; phase < 6; ++phase) {
    SCOPED_TRACE(phase);
    h.rt.on_pe(0, [&, phase] { arr.broadcast<&DynWorker::kick>(PhaseMsg{phase}); });
    h.machine.run();
    expect_snapshot_matches_reference(h.rt, arr.id());
  }
  EXPECT_GT(h.rt.collection(arr.id()).total_elements, 0);
  const auto& ctr = h.rt.lb().db_counters();
  EXPECT_GT(ctr.adds, 16) << "dynamic inserts should have registered";
  EXPECT_GT(ctr.removes, 0) << "destroys/migrations should have unregistered";
}

TEST(IncrementalOracle, FailAndRecoverRestoresDatabase) {
  Harness h(6);
  auto arr = ArrayProxy<SteadyWorker>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  h.rt.lb().register_collection(arr.id());
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(2);
  // Drive six rounds (greedy runs at rounds 2/4/6) so the database has seen
  // load updates and LB migrations before the checkpoint.
  h.rt.on_pe(0, [&] { arr.broadcast<&SteadyWorker::step>(IterMsg{5}); });
  h.machine.run();
  EXPECT_EQ(h.rt.lb().rounds_completed(), 6);
  // Checkpoint at the idle step boundary, then lose PE 3 and recover.
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;
  h.rt.on_pe(0, [&] {
    ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
      ckpt.fail_and_recover(3, Callback::to_function([&](ReductionResult&&) {
        recovered = true;
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);
  // The restore sweep extracted every element (remove hooks) and re-seeded
  // the survivors (add hooks); the database must match a fresh rebuild.
  expect_snapshot_matches_reference(h.rt, arr.id());
  // And the AtSync protocol keeps working on the restored database.
  h.rt.on_pe(0, [&] { arr.broadcast<&SteadyWorker::step>(IterMsg{3}); });
  h.machine.run();
  EXPECT_GE(h.rt.lb().rounds_completed(), 10);
  expect_snapshot_matches_reference(h.rt, arr.id());
}

/// Runs the production strategy on the manager's real input and checks each
/// decision against the reference algorithm on the same Stats.
class ReferenceChecked final : public lb::Strategy {
 public:
  using Reference = std::function<std::vector<lb::Migration>(const lb::Stats&)>;
  ReferenceChecked(std::unique_ptr<lb::Strategy> inner, Reference ref)
      : inner_(std::move(inner)), ref_(std::move(ref)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<lb::Migration> assign(const lb::Stats& st) override {
    std::vector<lb::Migration> got = inner_->assign(st);
    EXPECT_TRUE(migs_equal(got, ref_(st))) << inner_->name() << " round " << rounds;
    ++rounds;
    if (hosts_beyond_npes(st)) ++shrink_rounds;
    return got;
  }
  int rounds = 0;
  int shrink_rounds = 0;

 private:
  std::unique_ptr<lb::Strategy> inner_;
  Reference ref_;
};

void run_shrink_expand(std::unique_ptr<lb::Strategy> strat, ReferenceChecked::Reference ref) {
  Harness h(8);
  auto arr = ArrayProxy<SteadyWorker>::create(h.rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  h.rt.lb().register_collection(arr.id());
  auto checked = std::make_unique<ReferenceChecked>(std::move(strat), std::move(ref));
  ReferenceChecked& rounds = *checked;
  h.rt.lb().set_strategy(std::move(checked));
  bool shrunk = false;
  bool expanded = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&SteadyWorker::step>(IterMsg{3});
    h.rt.lb().request_reconfig(3, 1e-4, Callback::to_function([&](ReductionResult&&) {
      shrunk = true;
      EXPECT_EQ(h.rt.active_pes(), 3);
      expect_snapshot_matches_reference(h.rt, arr.id());
      for (const auto& c : h.rt.lb().snapshot_stats(3).chares) EXPECT_LT(c.pe, 3);
      h.rt.lb().request_reconfig(8, 1e-4, Callback::to_function([&](ReductionResult&&) {
        expanded = true;
      }));
    }));
  });
  h.machine.run();
  EXPECT_TRUE(shrunk);
  EXPECT_TRUE(expanded);
  EXPECT_EQ(h.rt.active_pes(), 8);
  EXPECT_EQ(rounds.rounds, 2) << "one shrink and one expand decision";
  EXPECT_EQ(rounds.shrink_rounds, 1);
  expect_snapshot_matches_reference(h.rt, arr.id());
}

TEST(IncrementalOracle, ShrinkExpandReconfigKeepsDatabaseConsistent) {
  {
    SCOPED_TRACE("greedy");
    run_shrink_expand(lb::make_greedy(), [](const lb::Stats& st) { return lbref::greedy(st); });
  }
  {
    SCOPED_TRACE("refine(1.05)");
    run_shrink_expand(lb::make_refine(1.05),
                      [](const lb::Stats& st) { return lbref::refine(st, 1.05); });
  }
}

TEST(IncrementalOracle, ShrinkTargetClampMatchesReference) {
  // A snapshot targeting fewer PEs than chares currently occupy: Greedy
  // leaves the evicted non-migratable load out, Refine clamps hosts onto the
  // last PE, and both must still decide exactly as the reference.
  Harness h(4);
  auto arr = ArrayProxy<SteadyWorker>::create(h.rt);
  for (int i = 0; i < 12; ++i) arr.seed(i, i % 4);
  h.rt.lb().register_collection(arr.id());
  h.rt.on_pe(0, [&] { arr.broadcast<&SteadyWorker::step>(IterMsg{0}); });
  h.machine.run();
  lb::Stats st = h.rt.lb().snapshot_stats(2);  // chares still live on PEs 0..3
  ASSERT_TRUE(st.aux.valid);
  EXPECT_EQ(st.aux.pes.back(), 3);
  const lb::Stats ref = lbref::rebuild_stats(h.rt, {arr.id()}, 2);
  ASSERT_TRUE(chares_equal(st.chares, ref.chares));
  expect_reference_decisions(st);
}

}  // namespace
