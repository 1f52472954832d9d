// Micro-benchmarks (google-benchmark) for the runtime substrate itself:
// PUP throughput, emulator event rate, point-send + location-lookup paths,
// reduction latency growth with PE count, and TRAM aggregation ablation.
//
// These measure HOST performance of the emulator and runtime data paths
// (events/sec), plus virtual-time ablations (reduction latency, TRAM factor).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lb/load_db.hpp"
#include "lb_reference.hpp"
#include "runtime/charm.hpp"
#include "sim/rng.hpp"
#include "tram/tram.hpp"

namespace {

using namespace charm;

struct Payload {
  std::vector<double> values;
  std::map<std::string, int> table;
  template <class P>
  void pup(P& p) {
    p | values;
    p | table;
  }
};

struct Msg {
  int v = 0;
  template <class P>
  void pup(P& p) {
    p | v;
  }
};

/// One timestamp, the shape of PHOLD's event message (8 bytes, memcpy path).
struct TsMsg {
  double ts = 0;
  template <class P>
  void pup(P& p) {
    p | ts;
  }
};

/// Flat aggregate whose walk collapses to one memcpy (pup::mem_copyable).
struct MemMsg {
  double a = 0;
  double b = 0;
  std::int64_t c = 0;
  template <class P>
  void pup(P& p) {
    p | a;
    p | b;
    p | c;
  }
};

struct StringMsg {
  std::string name;
  std::vector<std::string> tags;
  template <class P>
  void pup(P& p) {
    p | name;
    p | tags;
  }
};

struct NestedMsg {
  std::vector<std::vector<double>> rows;
  template <class P>
  void pup(P& p) {
    p | rows;
  }
};

}  // namespace

namespace pup {
template <>
struct MemCopyable<Msg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
template <>
struct MemCopyable<TsMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(double);
};
template <>
struct MemCopyable<MemMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = 2 * sizeof(double) + sizeof(std::int64_t);
};
}  // namespace pup

namespace {

void BM_PupRoundTrip(benchmark::State& state) {
  Payload in;
  in.values.assign(static_cast<std::size_t>(state.range(0)), 3.14);
  in.table = {{"a", 1}, {"b", 2}};
  for (auto _ : state) {
    auto bytes = pup::to_bytes(in);
    Payload out;
    pup::from_bytes(bytes, out);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)) * 8);
}
BENCHMARK(BM_PupRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PupPackUnpack_Mem(benchmark::State& state) {
  // mem_copyable aggregate: single-pass pack is one constexpr-sized memcpy.
  MemMsg in{1.5, 2.5, 42};
  std::vector<std::byte> buf;
  for (auto _ : state) {
    buf.clear();
    pup::pack_append(buf, in);
    MemMsg out;
    pup::from_bytes(buf.data(), buf.size(), out);
    benchmark::DoNotOptimize(out.c);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizeof(MemMsg)));
}
BENCHMARK(BM_PupPackUnpack_Mem);

void BM_PupPackUnpack_Strings(benchmark::State& state) {
  // Length-prefixed variable-size fields: the devirtualized walk still packs
  // in one pass (no separate Sizer traversal).
  StringMsg in;
  in.name = "a-reasonably-long-entry-method-label";
  for (int i = 0; i < 8; ++i) in.tags.push_back("tag-" + std::to_string(i));
  std::vector<std::byte> buf;
  for (auto _ : state) {
    buf.clear();
    pup::pack_append(buf, in);
    StringMsg out;
    pup::from_bytes(buf.data(), buf.size(), out);
    benchmark::DoNotOptimize(out.tags.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PupPackUnpack_Strings);

void BM_PupPackUnpack_Nested(benchmark::State& state) {
  NestedMsg in;
  in.rows.assign(16, std::vector<double>(static_cast<std::size_t>(state.range(0)), 2.5));
  std::vector<std::byte> buf;
  for (auto _ : state) {
    buf.clear();
    pup::pack_append(buf, in);
    NestedMsg out;
    pup::from_bytes(buf.data(), buf.size(), out);
    benchmark::DoNotOptimize(out.rows.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          static_cast<std::int64_t>(state.range(0)) * 8);
}
BENCHMARK(BM_PupPackUnpack_Nested)->Arg(16)->Arg(256);

void BM_MachineEventRate(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Machine m(sim::MachineConfig{8, {}, 4});
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      m.post(i % 8, 0.0, [&m, i] {
        if (i % 2 == 0) m.send((i + 3) % 8, 64, 0, [] {});
      });
    }
    m.run();
    benchmark::DoNotOptimize(m.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_MachineEventRate);

/// One message of BM_MachineBacklog: on delivery it sends itself on to a
/// random PE until it has made all its hops.
struct BacklogHop {
  static constexpr int kPes = 32;
  sim::Machine* m;
  sim::Rng* rng;
  int left;
  void operator()() const {
    if (left > 0)
      m->send(static_cast<int>(rng->next_below(kPes)), 64, 0,
              BacklogHop{m, rng, left - 1});
  }
};

void BM_MachineBacklog(benchmark::State& state) {
  // The memory-bound regime of PHOLD, which BM_MachineEventRate's ~1,000
  // events never reach: each of 32 PEs bursts 4,096 sends to random PEs, so
  // ~128K messages stay in flight while each makes four hops, and the event
  // heap and the arena slots of queued messages outgrow the caches.  One
  // long-lived machine, warmed by a first round, so the arena is recycled.
  constexpr int kBurst = 4096;
  constexpr int kHops = 4;
  sim::Machine m(sim::MachineConfig{BacklogHop::kPes, {}, 4});
  sim::Rng rng(1);
  auto drive = [&] {
    for (int pe = 0; pe < BacklogHop::kPes; ++pe) {
      m.post(pe, m.time(), [&m, &rng] {
        for (int i = 0; i < kBurst; ++i) BacklogHop{&m, &rng, kHops}();
      });
    }
    m.run();
  };
  drive();
  const std::uint64_t warm = m.events_processed();
  for (auto _ : state) {
    drive();
    benchmark::DoNotOptimize(m.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m.events_processed() - warm));
}
BENCHMARK(BM_MachineBacklog)->Unit(benchmark::kMillisecond);

class Sink : public ArrayElement<Sink, std::int32_t> {
 public:
  int n = 0;
  void take(const Msg&) { ++n; }
};

void BM_PointSendDelivery(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Machine m(sim::MachineConfig{8, {}, 4});
    Runtime rt(m);
    auto arr = ArrayProxy<Sink>::create(rt);
    for (int i = 0; i < 64; ++i) arr.seed(i, i % 8);
    state.ResumeTiming();
    rt.on_pe(0, [&] {
      for (int i = 0; i < 1000; ++i) arr[i % 64].send<&Sink::take>(Msg{i});
    });
    m.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PointSendDelivery);

void BM_PointSendDeliver(benchmark::State& state) {
  // Steady-state variant of BM_PointSendDelivery: one long-lived runtime, so
  // after the warm-up round every send→deliver runs entirely on recycled
  // resources (payload pool, closure block cache, event arena, ready queues).
  // This is the workload the zero-allocation guarantee covers.
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  Runtime rt(m);
  auto arr = ArrayProxy<Sink>::create(rt);
  for (int i = 0; i < 64; ++i) arr.seed(i, i % 8);
  auto drive = [&] {
    rt.on_pe(0, [&] {
      for (int i = 0; i < 1000; ++i) arr[i % 64].send<&Sink::take>(Msg{i});
    });
    m.run();
  };
  drive();  // warm the pools and location caches
  for (auto _ : state) drive();
  state.SetItemsProcessed(state.iterations() * 1000);
  const PayloadPool& pool = rt.payload_pool();
  state.counters["payload_pool_hits"] =
      benchmark::Counter(static_cast<double>(pool.hits()));
  state.counters["payload_pool_misses"] =
      benchmark::Counter(static_cast<double>(pool.misses()));
}
BENCHMARK(BM_PointSendDeliver);

void BM_LocalSendDeliver(benchmark::State& state) {
  // Same-PE steady state: every send takes the typed fast path — the
  // argument moves through an in-flight slot, nothing is packed or unpacked,
  // and no heap allocation happens after warm-up.  Virtual-time charges and
  // reported byte counts are identical to the packed path.
  sim::Machine m(sim::MachineConfig{1, {}, 4});
  Runtime rt(m);
  auto arr = ArrayProxy<Sink>::create(rt);
  for (int i = 0; i < 64; ++i) arr.seed(i, 0);
  auto drive = [&] {
    rt.on_pe(0, [&] {
      for (int i = 0; i < 1000; ++i) arr[i % 64].send<&Sink::take>(Msg{i});
    });
    m.run();
  };
  drive();  // warm the event arena and closure block cache
  for (auto _ : state) drive();
  state.SetItemsProcessed(state.iterations() * 1000);
  const PayloadPool& pool = rt.payload_pool();
  state.counters["payload_pool_hits"] =
      benchmark::Counter(static_cast<double>(pool.hits()));
  state.counters["payload_pool_misses"] =
      benchmark::Counter(static_cast<double>(pool.misses()));
}
BENCHMARK(BM_LocalSendDeliver);

class TsSink : public ArrayElement<TsSink, std::int32_t> {
 public:
  double sum = 0;
  void take(const TsMsg& m) { sum += m.ts; }
};

void BM_CrossPeBurst(benchmark::State& state) {
  // One handler puts 10,000 cross-PE sends of an 8-byte argument in flight,
  // more buffers than the payload pool retains.  The argument rides inline
  // in its Envelope, so no send takes a payload buffer and
  // payload_pool_misses stays 0; CI gates it there, because per-send heap
  // payloads would miss on every send past the pool's retention.
  constexpr int kSends = 10000;
  static_assert(kSends > PayloadPool::kMaxFreeBuffers);
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  Runtime rt(m);
  auto arr = ArrayProxy<TsSink>::create(rt);
  for (int i = 0; i < 64; ++i) arr.seed(i, 1 + i % 7);  // none on the sender
  auto drive = [&] {
    rt.on_pe(0, [&] {
      for (int i = 0; i < kSends; ++i)
        arr[i % 64].send<&TsSink::take>(TsMsg{static_cast<double>(i)});
    });
    m.run();
  };
  drive();  // warm the event arena, ready queues and location caches
  for (auto _ : state) drive();
  state.SetItemsProcessed(state.iterations() * kSends);
  state.counters["payload_pool_misses"] =
      benchmark::Counter(static_cast<double>(rt.payload_pool().misses()));
}
BENCHMARK(BM_CrossPeBurst);

void BM_SparseFootprint(benchmark::State& state) {
  // Structural memory of a million-virtual-PE machine whose workload touches
  // ~1K PEs (DESIGN.md §12).  The counters are byte-accounting over the
  // runtime's own structures (PagedTable pages, ready queues, event arena,
  // collection tables), so they are deterministic across hosts and gated
  // hard by CI's micro_to_stats.py --gate-max ceilings: a change that makes
  // per-PE state dense again blows the per-idle-PE ceiling.
  constexpr int kVirtualPes = 1 << 20;
  constexpr int kTouched = 1024;
  double idle_bytes_per_pe = 0;
  double touched_bytes_per_pe = 0;
  for (auto _ : state) {
    sim::Machine m(sim::MachineConfig{kVirtualPes, {}, 4});
    Runtime rt(m);
    // Configured-but-idle cost: nothing has touched any PE yet, so this is
    // the fixed overhead (table spines, initial event reserve) over all P.
    idle_bytes_per_pe = static_cast<double>(rt.memory_footprint().total()) /
                        static_cast<double>(kVirtualPes);
    auto arr = ArrayProxy<Sink>::create(rt);
    for (int i = 0; i < kTouched; ++i) arr.seed(i, i);
    rt.on_pe(0, [&] {
      for (int i = 0; i < kTouched; ++i) arr[i].send<&Sink::take>(Msg{i});
    });
    m.run();
    const Runtime::MemoryFootprint f = rt.memory_footprint();
    touched_bytes_per_pe = static_cast<double>(f.total()) /
                           static_cast<double>(f.touched_pes);
    benchmark::DoNotOptimize(touched_bytes_per_pe);
  }
  state.SetItemsProcessed(state.iterations() * kTouched);
  state.counters["mem_bytes_per_idle_pe"] = idle_bytes_per_pe;
  state.counters["mem_bytes_per_touched_pe"] = touched_bytes_per_pe;
  // Whole-process high-water mark (host-dependent; reported, not gated).
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  state.counters["mem_peak_rss_kb"] = static_cast<double>(ru.ru_maxrss);
}
BENCHMARK(BM_SparseFootprint);

class Contrib : public ArrayElement<Contrib, std::int32_t> {
 public:
  void go() { contribute(1.0, ReduceOp::kSum, cb); }
  static Callback cb;
};
Callback Contrib::cb;

void BM_ReductionVirtualLatency(benchmark::State& state) {
  // Reports the VIRTUAL latency of one reduction at a given PE count; real
  // time measures the emulator overhead.
  const int npes = static_cast<int>(state.range(0));
  double virtual_latency = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Machine m(sim::MachineConfig{npes, {}, 4});
    Runtime rt(m);
    auto arr = ArrayProxy<Contrib>::create(rt);
    for (int i = 0; i < npes; ++i) arr.seed(i, i);
    double t_done = 0;
    Contrib::cb = Callback::to_function([&](ReductionResult&&) { t_done = charm::now(); });
    state.ResumeTiming();
    rt.on_pe(0, [&] { arr.broadcast<&Contrib::go>(); });
    m.run();
    virtual_latency = t_done;
  }
  state.counters["virtual_us"] = virtual_latency * 1e6;
}
BENCHMARK(BM_ReductionVirtualLatency)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_TramAggregationFactor(benchmark::State& state) {
  const std::size_t buffer = static_cast<std::size_t>(state.range(0));
  double aggregation = 0;
  double virtual_time = 0;
  for (auto _ : state) {
    sim::Machine m(sim::MachineConfig{27, {}, 4});
    Runtime rt(m);
    auto arr = ArrayProxy<Sink>::create(rt);
    for (int i = 0; i < 27; ++i) arr.seed(i, i);
    tram::Stream<&Sink::take> stream(rt, arr, buffer);
    rt.on_pe(0, [&] {
      sim::Rng rng(1);
      for (int k = 0; k < 4000; ++k)
        stream.send(static_cast<std::int32_t>(rng.next_below(27)), Msg{k});
      stream.flush_all();
    });
    m.run();
    aggregation = stream.core().aggregation();
    virtual_time = m.max_pe_clock();
  }
  state.counters["items_per_batch"] = aggregation;
  state.counters["virtual_ms"] = virtual_time * 1e3;
}
BENCHMARK(BM_TramAggregationFactor)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// ---- LB decision loop (DESIGN.md §13) --------------------------------------
//
// One "round" is what the runtime does between the AtSync barrier and the
// migration broadcast: refresh every chare's measured load, produce the
// strategy input, run the strategy, and apply its decisions.  BM_LbAssign_*
// drives the persistent load database (O(dirty) snapshot + the strategies'
// one indexed algorithm); BM_LbAssignRebuild_* replays the pre-database cost
// model on the same workload — regroup every chare from the per-PE element
// tables, canonical-sort them, and run the from-scratch reference algorithm
// (tests/lb_reference.hpp) on the result.  Decisions are bit-identical
// between the two (the oracle fuzz in tests/features/test_lb_incremental.cpp
// proves it), so the us_per_round ratio isolates the decision-loop overhead
// the database removes.  The workload models the paper's persistence
// principle (§III-A): after a warm-up converges placement, ~1% of loads drift
// per round and each round's migrations feed back into the next.

std::uint64_t lb_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr int kLbPes = 64;

double lb_load(int i, int generation) {
  const std::uint64_t h =
      lb_mix(static_cast<std::uint64_t>(i) * 0x51ull + static_cast<std::uint64_t>(generation));
  return (1.0 + static_cast<double>(h % 1024) / 1024.0) * 1e-3;
}

/// Per-round load drift: ~1% of chares report a different measurement.
void lb_perturb(std::vector<double>& load, int round) {
  const int n = static_cast<int>(load.size());
  const int changed = n / 100 + 1;
  for (int j = 0; j < changed; ++j) {
    const int i = static_cast<int>((static_cast<std::uint64_t>(round) * 9973ull +
                                    static_cast<std::uint64_t>(j) * 101ull) %
                                   static_cast<std::uint64_t>(n));
    load[i] = lb_load(i, round + 1);
  }
}

std::unique_ptr<lb::Strategy> lb_make(const std::string& which) {
  return which == "greedy" ? lb::make_greedy() : lb::make_refine(1.05);
}

template <class RunRound>
void lb_assign_loop(benchmark::State& state, int n, RunRound&& run_round) {
  for (int w = 0; w < 4; ++w) run_round();  // converge to the steady state
  std::int64_t moved = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) moved += run_round();
  const auto t1 = std::chrono::steady_clock::now();
  const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["us_per_round"] = us / static_cast<double>(state.iterations());
  state.counters["moved_per_round"] =
      static_cast<double>(moved) / static_cast<double>(state.iterations());
}

void lb_assign_db(benchmark::State& state, const std::string& which) {
  const int n = static_cast<int>(state.range(0));
  auto strat = lb_make(which);
  lb::LoadDb db;
  lb::SpeedMap speed;
  std::vector<double> load(static_cast<std::size_t>(n));
  std::vector<int> pe(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pe[i] = static_cast<int>(static_cast<std::int64_t>(i) * kLbPes / n);
    load[i] = lb_load(i, 0);
    slot[i] = db.add(0, ObjIndex{static_cast<std::uint64_t>(i), 0}, pe[i], load[i], true, true,
                     std::array<double, 3>{}, nullptr);
  }
  int round = 0;
  auto run_round = [&]() -> std::int64_t {
    lb_perturb(load, round);
    for (int i = 0; i < n; ++i) db.update_load(slot[i], load[i]);
    lb::Stats st = db.snapshot(kLbPes, speed);
    const std::vector<lb::Migration> migs = strat->assign(st);
    db.recycle(std::move(st));  // as the manager does after the strategy runs
    for (const lb::Migration& mg : migs) {
      const int i = static_cast<int>(mg.idx.a);
      db.remove(slot[i]);
      pe[i] = mg.to;
      slot[i] = db.add(0, mg.idx, mg.to, load[i], true, true, std::array<double, 3>{}, nullptr);
    }
    ++round;
    return static_cast<std::int64_t>(migs.size());
  };
  lb_assign_loop(state, n, run_round);
  state.counters["db_dirty_reads"] = static_cast<double>(db.counters().dirty_flushed);
  state.counters["db_full_sorts"] = static_cast<double>(db.counters().index_full_sorts);
}

void lb_assign_rebuild(benchmark::State& state, const std::string& which) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> load(static_cast<std::size_t>(n));
  std::vector<int> pe(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pe[i] = static_cast<int>(static_cast<std::int64_t>(i) * kLbPes / n);
    load[i] = lb_load(i, 0);
  }
  std::vector<int> off(kLbPes + 1, 0);
  // The old collect walked each PE's unordered element table, so within a PE
  // the chares arrive in hash order, not index order; emulate that with a
  // fixed permutation or the canonical sort below gets artificially easy
  // presorted runs.
  std::vector<int> walk(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) walk[i] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(walk[i], walk[lb_mix(0xabcdull + static_cast<std::uint64_t>(i)) %
                            static_cast<std::uint64_t>(i + 1)]);
  int round = 0;
  auto run_round = [&]() -> std::int64_t {
    lb_perturb(load, round);
    // A fresh Stats per round, as the old rebuild built one: regroup by
    // hosting PE first — the shape the per-PE element tables hand back —
    // then canonical-sort, exactly as the pre-database collect did.
    lb::Stats st;
    st.npes = kLbPes;
    std::fill(off.begin(), off.end(), 0);
    for (int i = 0; i < n; ++i) ++off[pe[i] + 1];
    for (int p = 0; p < kLbPes; ++p) off[p + 1] += off[p];
    st.chares.resize(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const int i = walk[k];
      lb::ChareInfo& info = st.chares[off[pe[i]]++];
      info.col = 0;
      info.idx = ObjIndex{static_cast<std::uint64_t>(i), 0};
      info.pe = pe[i];
      info.work = load[i];
      info.migratable = true;
    }
    std::sort(st.chares.begin(), st.chares.end(), [](const lb::ChareInfo& a, const lb::ChareInfo& b) {
      if (a.col != b.col) return a.col < b.col;
      if (a.idx.a != b.idx.a) return a.idx.a < b.idx.a;
      return a.idx.b < b.idx.b;
    });
    const std::vector<lb::Migration> migs =
        which == "greedy" ? lbref::greedy(st) : lbref::refine(st, 1.05);
    for (const lb::Migration& mg : migs) pe[static_cast<int>(mg.idx.a)] = mg.to;
    ++round;
    return static_cast<std::int64_t>(migs.size());
  };
  lb_assign_loop(state, n, run_round);
}

void BM_LbAssign_Greedy(benchmark::State& state) { lb_assign_db(state, "greedy"); }
BENCHMARK(BM_LbAssign_Greedy)->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LbAssign_Refine(benchmark::State& state) { lb_assign_db(state, "refine"); }
BENCHMARK(BM_LbAssign_Refine)->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LbAssignRebuild_Greedy(benchmark::State& state) { lb_assign_rebuild(state, "greedy"); }
BENCHMARK(BM_LbAssignRebuild_Greedy)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_LbAssignRebuild_Refine(benchmark::State& state) { lb_assign_rebuild(state, "refine"); }
BENCHMARK(BM_LbAssignRebuild_Refine)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

}  // namespace

// Like BENCHMARK_MAIN(), but also accepts the figure benches' --smoke flag
// (mapped to a minimal-time run) so CI can invoke every bench uniformly, and
// records charmlike's own CMAKE_BUILD_TYPE as the charmlike_build_type
// context value (google-benchmark's library_build_type is libbenchmark's).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  for (char*& a : args)
    if (std::string_view(a) == "--smoke") a = min_time.data();
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext("charmlike_build_type", CHARMLIKE_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
