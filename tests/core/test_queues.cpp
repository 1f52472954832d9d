// Ordering invariants of the scheduler's hot-path queues, the move/destroy
// semantics of sim::UniqueFn, and the zero-allocation guarantee for the
// steady-state point-send path (and, for cross-PE messages whose argument
// fits the Envelope's inline payload bytes, for bursts of any size).
//
// The queue tests pin down the total orders the simulation's determinism
// rests on: (time, seq) for the global event list, over its arrivals and
// PE wake-ups together, and (priority, arrival, seq) for the per-PE ready
// queue — including the FIFO fast path that default-priority messages take
// — plus the MinHeap both are built on, and the lifetime of an event-arena
// slot, which a ready queue refers to by id.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/charm.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/min_heap.hpp"
#include "sim/ready_queue.hpp"
#include "sim/unique_fn.hpp"

namespace {

// ---- operator new/delete counting hook --------------------------------------
//
// Global allocation counter used by the zero-allocation test.  Counting is
// toggled around the measured region; the hooks otherwise defer to malloc.

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

using sim::Event;
using sim::EventQueue;
using sim::ReadyQueue;
using sim::UniqueFn;

struct LifeCounter {
  int* constructions;
  int* destructions;
  explicit LifeCounter(int* c, int* d) : constructions(c), destructions(d) {
    ++*constructions;
  }
  LifeCounter(const LifeCounter& o)
      : constructions(o.constructions), destructions(o.destructions) {
    ++*constructions;
  }
  LifeCounter(LifeCounter&& o) noexcept
      : constructions(o.constructions), destructions(o.destructions) {
    ++*constructions;
  }
  ~LifeCounter() { ++*destructions; }
  void operator()() const {}
};

// ---- MinHeap ----------------------------------------------------------------

TEST(MinHeap, InterleavedPushPopMatchesReferenceModel) {
  // Few distinct values, so most comparisons tie on the value and fall
  // through to the unique tag: the pop sequence must be the reference set's.
  using Key = std::pair<int, std::uint32_t>;
  sim::MinHeap<Key, std::less<Key>> heap;
  std::set<Key> reference;
  std::mt19937 rng(7);
  for (std::uint32_t tag = 0; tag < 20000; ++tag) {
    const Key k{static_cast<int>(rng() % 32) - 16, tag};
    heap.push(k);
    reference.insert(k);
    for (int n = static_cast<int>(rng() % 3); n > 0 && !heap.empty(); --n) {
      EXPECT_EQ(heap.top(), *reference.begin());
      EXPECT_EQ(heap.pop(), *reference.begin());
      reference.erase(reference.begin());
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
  while (!heap.empty()) {
    EXPECT_EQ(heap.pop(), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GE(heap.memory_bytes(), sizeof(Key)) << "capacity is kept after draining";
}

// ---- EventQueue -------------------------------------------------------------

/// Pops the earliest event, an arrival, and returns the id of its slot.
EventQueue::SlotId pop_slot(EventQueue& q) {
  const EventQueue::Next next = q.pop();
  EXPECT_FALSE(next.wakeup);
  return next.id;
}

/// Pops the earliest event, an arrival, returns its (time, seq), releases
/// its slot.
std::pair<double, std::uint64_t> pop_key(EventQueue& q) {
  const EventQueue::SlotId id = pop_slot(q);
  const Event& e = q.slot(id);
  const std::pair<double, std::uint64_t> key{e.time, e.seq};
  q.release(id);
  return key;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  const double times[] = {5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 2.5};
  std::uint64_t seq = 0;
  for (double t : times)
    q.emplace(t, seq++, 0, 0, 0);
  double prev = -1;
  while (!q.empty()) {
    const double t = pop_key(q).first;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EventQueue, EqualTimesBreakTiesBySeqFifo) {
  EventQueue q;
  // All at the same virtual time, interleaved with earlier/later events.
  for (std::uint64_t s = 0; s < 64; ++s)
    q.emplace(1.0, s, 0, 0, 0);
  q.emplace(0.5, 64, 0, 0, 0);
  q.emplace(2.0, 65, 0, 0, 0);

  EXPECT_DOUBLE_EQ(pop_key(q).first, 0.5);
  for (std::uint64_t s = 0; s < 64; ++s) {
    const auto [t, seq] = pop_key(q);
    EXPECT_DOUBLE_EQ(t, 1.0);
    EXPECT_EQ(seq, s) << "same-time events must pop in insertion order";
  }
  EXPECT_DOUBLE_EQ(pop_key(q).first, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopMatchesReferenceModel) {
  EventQueue q;
  std::set<std::pair<double, std::uint64_t>> reference;
  std::uint64_t seq = 0;
  // Sawtooth: bursts of pushes with partial drains in between, exercising
  // slot reuse through the free list.  Every pop must match the minimum of
  // a reference ordered set under (time, seq).
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 50; ++k) {
      const double t = static_cast<double>((round * 50 + k * 7) % 997);
      q.emplace(t, seq, 0, 0, 0);
      reference.emplace(t, seq);
      ++seq;
    }
    for (int k = 0; k < 30 && !q.empty(); ++k) {
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(pop_key(q), *reference.begin());
      reference.erase(reference.begin());
    }
  }
  while (!q.empty()) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(pop_key(q), *reference.begin());
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, DetachedEventsKeepTheirSlotUntilReleased) {
  EventQueue q;
  // Popped slots leave the heap but not the arena: later emplaces must
  // not reuse them, and their contents survive sifts and arena growth.
  for (std::uint64_t s = 0; s < 8; ++s)
    q.emplace(static_cast<double>(s), s, static_cast<int>(s), 0, 0);
  std::vector<EventQueue::SlotId> held;
  for (int k = 0; k < 4; ++k) held.push_back(pop_slot(q));
  EXPECT_EQ(q.size(), 4u);
  for (std::uint64_t s = 8; s < 8 + 3 * 256; ++s)
    q.emplace(0.5, s, -1, 0, 0);
  for (std::size_t k = 0; k < held.size(); ++k) {
    EXPECT_EQ(q.slot(held[k]).seq, k);
    EXPECT_EQ(q.slot(held[k]).pe, static_cast<int>(k));
  }
  // The released ids are the next ones handed out (LIFO free list).
  for (EventQueue::SlotId id : held) q.release(id);
  for (std::size_t k = 0; k < held.size(); ++k) {
    q.emplace(9.0, 2000 + k, 0, 0, 0);
  }
  std::vector<EventQueue::SlotId> reused;
  while (!q.empty()) {
    const EventQueue::SlotId id = pop_slot(q);
    if (q.slot(id).time == 9.0) reused.push_back(id);
    q.release(id);
  }
  std::sort(reused.begin(), reused.end());
  std::sort(held.begin(), held.end());
  EXPECT_EQ(reused, held);
}

TEST(EventQueue, DestroyingQueueReleasesPendingAndDetachedClosuresOnce) {
  int ctor = 0, dtor = 0, runs = 0;
  {
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
      q.emplace(static_cast<double>(100 - i), static_cast<std::uint64_t>(i), 0, 0, 0)
          .fn = [c = LifeCounter(&ctor, &dtor), &runs] {
            c();
            ++runs;
          };
    }
    // 50 run in place and are released, 20 are popped but kept (as if
    // parked in a ready queue), 30 stay in the heap.
    for (int i = 0; i < 50; ++i) {
      const EventQueue::SlotId id = pop_slot(q);
      q.slot(id).fn();
      q.release(id);
    }
    for (int i = 0; i < 20; ++i) pop_slot(q);
    EXPECT_EQ(runs, 50);
    EXPECT_EQ(ctor - dtor, 50) << "popped and pending closures stay alive";
  }
  EXPECT_EQ(ctor, dtor) << "every closure must be destroyed exactly once";
}

TEST(EventQueue, OverflowingTheKeyLayoutThrowsInEveryBuild) {
  EventQueue q;
  q.emplace(0.0, EventQueue::kMaxSeq - 1, 0, 0, 0);
  try {
    q.emplace(0.0, EventQueue::kMaxSeq, 0, 0, 0);
    FAIL() << "seq 2^40 must not fit the packed key";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^40"), std::string::npos);
  }
  EXPECT_EQ(q.size(), 1u) << "a refused emplace leaves the queue unchanged";
  // A wake-up key packs the same way, with the PE in the id bits.
  q.wake(0.0, EventQueue::kMaxSeq - 2, 0);
  try {
    q.wake(0.0, EventQueue::kMaxSeq, 0);
    FAIL() << "seq 2^40 must not fit the packed wake-up key";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^40"), std::string::npos);
  }
  EXPECT_THROW(q.wake(0.0, 0, static_cast<int>(EventQueue::kMaxPes)),
               std::length_error);
  EXPECT_THROW(q.wake(0.0, 0, -1), std::length_error);
  EXPECT_EQ(q.size(), 2u) << "a refused wake leaves the queue unchanged";
  const EventQueue::Next woken = q.pop();
  EXPECT_TRUE(woken.wakeup);
  EXPECT_EQ(woken.id, 0u);
  EXPECT_EQ(pop_key(q).second, EventQueue::kMaxSeq - 1);
}

/// Pops every event of `q` as (time, seq): an arrival's seq is read from its
/// slot (which is released), and each wake-up in these tests is queued for
/// the PE numbered like its seq.
std::vector<std::pair<double, std::uint64_t>> drain(EventQueue& q) {
  std::vector<std::pair<double, std::uint64_t>> out;
  while (!q.empty()) {
    const double next_time = q.next_time();
    const EventQueue::Next next = q.pop();
    EXPECT_EQ(next.time, next_time);
    if (next.wakeup) {
      out.emplace_back(next.time, next.id);
    } else {
      out.emplace_back(next.time, q.slot(next.id).seq);
      q.release(next.id);
    }
  }
  return out;
}

TEST(EventQueue, WakeupsAndArrivalsPopInOneTimeSeqOrder) {
  EventQueue q;
  q.emplace(1.0, 5, 0, 0, 0);
  q.wake(1.0, 3, 3);
  q.wake(1.0, 7, 7);
  q.emplace(0.5, 9, 0, 0, 0);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(drain(q), (std::vector<std::pair<double, std::uint64_t>>{
                          {0.5, 9}, {1.0, 3}, {1.0, 5}, {1.0, 7}}));
}

TEST(EventQueue, WakeupsTakeNoArenaSlot) {
  EventQueue q;
  for (int pe = 0; pe < 300; ++pe) q.wake(1.0, static_cast<std::uint64_t>(pe), pe);
  EXPECT_LT(q.memory_bytes(), 256 * sizeof(Event))
      << "300 wake-ups cost 16-byte keys, not an arena chunk";
  q.emplace(2.0, 300, 0, 0, 0);
  for (int k = 0; k < 300; ++k) EXPECT_TRUE(q.pop().wakeup);
  EXPECT_EQ(pop_slot(q), 0u) << "the only arrival takes the arena's first slot";
}

TEST(EventQueue, MixedWakeupsAndArrivalsMatchReferenceModel) {
  // Random interleavings of arrivals, wake-ups and pops over few distinct
  // times, so most comparisons tie on time and fall through to seq: every
  // pop must be the minimum of one reference set over both kinds.
  std::mt19937_64 rng(12345);
  EventQueue q;
  std::set<std::pair<double, std::uint64_t>> reference;
  std::set<std::uint64_t> wakeup_seqs;
  for (std::uint64_t seq = 0; seq < 20000; ++seq) {
    const double t = static_cast<double>(rng() % 16) * 0.25;
    if (rng() % 2 == 0) {
      q.emplace(t, seq, 0, 0, 0);
    } else {
      // The PE id never decides the order; name each PE like its seq.
      q.wake(t, seq, static_cast<int>(seq));
      wakeup_seqs.insert(seq);
    }
    reference.emplace(t, seq);
    for (int k = static_cast<int>(rng() % 3); k > 0 && !q.empty(); --k) {
      const auto expected = *reference.begin();
      reference.erase(reference.begin());
      EXPECT_EQ(q.next_time(), expected.first);
      const EventQueue::Next next = q.pop();
      ASSERT_EQ(next.wakeup, wakeup_seqs.count(expected.second) == 1);
      EXPECT_EQ(next.time, expected.first);
      if (next.wakeup) {
        EXPECT_EQ(next.id, expected.second);
      } else {
        EXPECT_EQ(q.slot(next.id).seq, expected.second);
        q.release(next.id);
      }
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  for (const auto& [t, seq] : drain(q)) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(t, reference.begin()->first);
    // drain() reports a wake-up's PE, which here is its seq.
    EXPECT_EQ(seq, reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, MessageOfFourGibibytesThrowsInEveryBuild) {
  EventQueue q;
  Event& e = q.emplace(0.0, 0, 0, 0, EventQueue::kMaxBytes);
  EXPECT_EQ(e.bytes, EventQueue::kMaxBytes) << "the largest size must round-trip";
  EXPECT_THROW(q.emplace(1.0, 1, 0, 0, std::size_t{1} << 32),
               std::length_error);
  EXPECT_EQ(q.size(), 1u) << "a refused emplace leaves the queue unchanged";
}

// ---- ReadyQueue -------------------------------------------------------------

/// Parks a message in `arena` the way the machine does on arrival: emplace
/// it, then pop its heap key.  Returns the slot id.
EventQueue::SlotId arrive(EventQueue& arena, int priority, double arrival,
                          std::uint64_t seq) {
  arena.emplace(arrival, seq, 0, priority, 0);
  EXPECT_EQ(arena.size(), 1u);
  return pop_slot(arena);
}

/// Pops the best message from `q`, returns its seq, releases its slot.
std::uint64_t pop_seq(ReadyQueue& q, EventQueue& arena) {
  const EventQueue::SlotId id = q.pop(arena);
  const std::uint64_t seq = arena.slot(id).seq;
  arena.release(id);
  return seq;
}

TEST(ReadyQueue, FifoFastPathServesDefaultPriorityInArrivalOrder) {
  EventQueue arena;
  ReadyQueue q;
  for (std::uint64_t s = 0; s < 100; ++s)
    q.push(arena, arrive(arena, ReadyQueue::kFifoPriority,
                         static_cast<double>(s), s));
  EXPECT_EQ(q.memory_bytes(), 128 * sizeof(EventQueue::SlotId))
      << "default-priority messages cost one slot id in the ring";
  for (std::uint64_t s = 0; s < 100; ++s) EXPECT_EQ(pop_seq(q, arena), s);
  EXPECT_TRUE(q.empty());
}

TEST(ReadyQueue, MergesFifoAndHeapUnderPriorityArrivalSeqOrder) {
  EventQueue arena;
  ReadyQueue q;
  // Default-priority messages arrive in (arrival, seq) order (the machine
  // guarantees this); prioritized messages arrive interleaved.
  q.push(arena, arrive(arena, 0, 1.0, 10));
  q.push(arena, arrive(arena, -5, 3.0, 11));  // lower value = served first
  q.push(arena, arrive(arena, 0, 2.0, 12));
  q.push(arena, arrive(arena, 7, 0.5, 13));
  q.push(arena, arrive(arena, 0, 2.5, 14));
  q.push(arena, arrive(arena, -5, 4.0, 15));

  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(pop_seq(q, arena));
  // (priority, arrival, seq): -5s first by arrival, then priority-0 FIFO,
  // then priority 7.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{11, 15, 10, 12, 14, 13}));
}

TEST(ReadyQueue, SamePriorityHeapBreaksTiesByArrivalThenSeq) {
  EventQueue arena;
  ReadyQueue q;
  q.push(arena, arrive(arena, 3, 2.0, 21));
  q.push(arena, arrive(arena, 3, 1.0, 22));
  q.push(arena, arrive(arena, 3, 1.0, 20));
  q.push(arena, arrive(arena, 3, 1.0, 25));
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(pop_seq(q, arena));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{20, 22, 25, 21}));
}

TEST(ReadyQueue, RingGrowthPreservesOrder) {
  EventQueue arena;
  ReadyQueue q;
  std::uint64_t s = 0;
  std::vector<std::uint64_t> expected;
  // Force several ring doublings with interleaved partial drains so the ring
  // wraps around while growing.
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < (1 << round); ++k) {
      q.push(arena, arrive(arena, 0, static_cast<double>(s), s));
      expected.push_back(s);
      ++s;
    }
    for (int k = 0; k < (1 << round) / 2; ++k) pop_seq(q, arena);
    expected.erase(expected.begin(), expected.begin() + (1 << round) / 2);
  }
  std::vector<std::uint64_t> rest;
  while (!q.empty()) rest.push_back(pop_seq(q, arena));
  EXPECT_EQ(rest, expected);
}

// ---- UniqueFn ---------------------------------------------------------------

TEST(UniqueFn, DestroysHeldClosureExactlyOnce) {
  int ctor = 0, dtor = 0;
  {
    UniqueFn f(LifeCounter(&ctor, &dtor));
    f();
  }
  EXPECT_EQ(ctor, dtor) << "every constructed closure must be destroyed";
  EXPECT_GE(ctor, 1);
}

TEST(UniqueFn, MoveTransfersOwnershipNoDoubleDestroy) {
  int ctor = 0, dtor = 0;
  {
    UniqueFn a(LifeCounter(&ctor, &dtor));
    UniqueFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    UniqueFn c;
    c = std::move(b);
    EXPECT_TRUE(static_cast<bool>(c));
    c();
  }
  EXPECT_EQ(ctor, dtor);
}

TEST(UniqueFn, SmallClosuresAreInlineLargeAreBoxed) {
  int x = 0;
  UniqueFn small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());

  struct Big {
    char pad[128];
    int* p;
    void operator()() { ++*p; }
  };
  Big big{};
  big.p = &x;
  UniqueFn boxed(big);
  EXPECT_FALSE(boxed.is_inline());
  small();
  boxed();
  EXPECT_EQ(x, 2);

  // Boxed closures move by pointer swap: still valid after several moves.
  UniqueFn moved = std::move(boxed);
  UniqueFn moved2 = std::move(moved);
  moved2();
  EXPECT_EQ(x, 3);
}

/// A closure of exactly N bytes (byte alignment, so no padding).
template <std::size_t N>
struct SizedClosure {
  unsigned char bytes[N]{};
  void operator()() { ++bytes[N - 1]; }
};

TEST(UniqueFn, InlineBufferHoldsExactlyKInlineBytes) {
  using Fits = SizedClosure<UniqueFn::kInlineBytes>;
  using Spills = SizedClosure<UniqueFn::kInlineBytes + 1>;
  static_assert(sizeof(Fits) == UniqueFn::kInlineBytes);
  static_assert(UniqueFn::kFitsInline<Fits> && !UniqueFn::kFitsInline<Spills>);
  UniqueFn fits(Fits{});
  UniqueFn spills(Spills{});
  EXPECT_TRUE(fits.is_inline());
  EXPECT_FALSE(spills.is_inline());
  fits();
  spills();
}

TEST(UniqueFn, BoxedClosureMovesAndDestroysThroughTheInlineBuffer) {
  // The block pointer of a boxed closure lives in the inline buffer: moves
  // must carry it over exactly once, and every destruction path must return
  // the block (a double free or a leak aborts under ASan).
  int ctor = 0, dtor = 0, runs = 0;
  struct Boxed {
    LifeCounter life;
    int* runs;
    unsigned char pad[UniqueFn::kInlineBytes]{};
    void operator()() { ++*runs; }
  };
  auto make = [&] { return UniqueFn(Boxed{LifeCounter(&ctor, &dtor), &runs}); };
  {
    // At most two are live at once below; start with two cached blocks.
    UniqueFn w1 = make();
    UniqueFn w2 = make();
  }
  const std::size_t cached = sim::detail::BlockCache::cached_blocks();
  {
    UniqueFn a = make();
    ASSERT_FALSE(a.is_inline());
    UniqueFn b(std::move(a));            // move-construct
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    b();
    UniqueFn c = make();
    c = std::move(b);                    // move-assign over a boxed closure
    c();
    UniqueFn d([&runs] { ++runs; });
    d = std::move(c);                    // move-assign over an inline closure
    EXPECT_FALSE(d.is_inline());
    d();
    auto& self = d;
    d = std::move(self);                 // self-move keeps the closure
    d();
    UniqueFn e = make();
    e.reset();                           // explicit reset
    EXPECT_FALSE(static_cast<bool>(e));
    e = make();                          // destroyed at scope exit
  }
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(ctor, dtor) << "every boxed closure must be destroyed exactly once";
  EXPECT_EQ(sim::detail::BlockCache::cached_blocks(), cached)
      << "every block must return to the cache";
}

TEST(UniqueFn, EmptyInvokeThrows) {
  UniqueFn f;
  EXPECT_THROW(f(), std::bad_function_call);
}

TEST(UniqueFn, QuarantineDisposalRunsHandlerWithoutDoubleFree) {
  // A message in flight to a failed PE is executed in quarantine (dispose
  // path) — the closure must run once and be destroyed once.
  sim::Machine m(sim::MachineConfig{4, {}, 4});
  int ctor = 0, dtor = 0, runs = 0;
  struct Probe {
    int* ctor;
    int* dtor;
    int* runs;
    Probe(int* c, int* d, int* r) : ctor(c), dtor(d), runs(r) { ++*ctor; }
    Probe(const Probe& o) : ctor(o.ctor), dtor(o.dtor), runs(o.runs) { ++*ctor; }
    Probe(Probe&& o) noexcept : ctor(o.ctor), dtor(o.dtor), runs(o.runs) {
      ++*ctor;
    }
    ~Probe() { ++*dtor; }
    void operator()() { ++*runs; }
  };
  m.post(2, 0.0, Probe(&ctor, &dtor, &runs));
  m.fail_pe(2);
  m.run();
  EXPECT_EQ(runs, 1) << "quarantined handler still runs for accounting";
  EXPECT_EQ(ctor, dtor);
}

// ---- zero-allocation steady state -------------------------------------------

struct PingMsg {
  int v = 0;
  template <class P>
  void pup(P& p) {
    p | v;
  }
};

class PingSink : public charm::ArrayElement<PingSink, std::int32_t> {
 public:
  int n = 0;
  void take(const PingMsg&) { ++n; }
};

/// ~1 KiB flat message: too large for a typed same-PE delivery closure, so
/// it is packed into a pooled buffer on every path.
struct BulkMsg {
  std::array<double, 120> data{};
  template <class P>
  void pup(P& p) {
    p | data;
  }
};

class BulkSink : public charm::ArrayElement<BulkSink, std::int32_t> {
 public:
  int n = 0;
  double sum = 0;
  void take(const BulkMsg& m) {
    ++n;
    sum += m.data[0];
  }
};

TEST(ZeroAlloc, SteadyStatePointSendDeliverDoesNotAllocate) {
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<PingSink>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);

  auto drive = [&](int rounds) {
    rt.on_pe(0, [&arr, rounds] {
      for (int i = 0; i < rounds; ++i)
        arr[i % 32].send<&PingSink::take>(PingMsg{i});
    });
    m.run();
  };

  // Warm-up: populates the payload pool, the closure block cache, the event
  // arena, the ready queues, and the location caches.
  drive(2000);

  // Steady state: every send→deliver must recycle pooled resources.
  g_allocs = 0;
  g_counting = true;
  drive(2000);
  g_counting = false;
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state point send→deliver must be allocation-free";

  const charm::PayloadPool& pool = rt.payload_pool();
  EXPECT_GT(pool.hits(), 0u);
}

/// Heap traffic of one measured cross-PE burst (see cross_pe_burst).
struct BurstCounts {
  std::size_t allocs = 0;         ///< operator new calls during the burst
  std::uint64_t pool_allocs = 0;  ///< payload pool misses + grows during it
};

/// One handler puts more cross-PE sends in flight than the closure block
/// cache retains (and than the payload pool retains buffers).  Every element
/// sits away from its home PE and from the sender, and moves between two such
/// PEs before each burst, so each send also takes a stale-cache bounce to the
/// home, a home forward and a location-cache teach message.  Returns the heap
/// traffic of the last of four bursts, once the arena, ready queues and
/// caches are warm.
template <class Sink, auto Entry, class MakeMsg>
BurstCounts cross_pe_burst(MakeMsg make_msg) {
  constexpr int kPes = 8;
  constexpr int kElems = 64;
  constexpr int kSends = 10000;
  static_assert(kSends > sim::detail::BlockCache::kMaxFreeBlocks);
  static_assert(kSends > charm::PayloadPool::kMaxFreeBuffers);
  sim::Machine m(sim::MachineConfig{kPes, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<Sink>::create(rt);
  const charm::CollectionId col = arr.id();

  // Elements homed away from the sender (PE 0), with two placements each.
  std::vector<std::int32_t> ids;
  std::vector<std::array<int, 2>> placement;
  for (std::int32_t i = 0; static_cast<int>(ids.size()) < kElems; ++i) {
    const int home = rt.home_pe(charm::IndexTraits<std::int32_t>::encode(i));
    if (home == 0) continue;
    std::vector<int> away;
    for (int pe = 1; pe < kPes; ++pe)
      if (pe != home) away.push_back(pe);
    const std::size_t k = static_cast<std::size_t>(i) % away.size();
    ids.push_back(i);
    placement.push_back({away[k], away[(k + 1) % away.size()]});
  }
  for (std::size_t e = 0; e < ids.size(); ++e) arr.seed(ids[e], placement[e][0]);

  auto burst = [&] {
    rt.on_pe(0, [&] {
      for (int i = 0; i < kSends; ++i)
        arr[ids[static_cast<std::size_t>(i % kElems)]].template send<Entry>(make_msg(i));
    });
    m.run();
  };
  auto move_all = [&](int to) {
    for (std::size_t e = 0; e < ids.size(); ++e) {
      const int from = placement[e][static_cast<std::size_t>(1 - to)];
      const charm::ObjIndex ix = charm::IndexTraits<std::int32_t>::encode(ids[e]);
      rt.on_pe(from, [&rt, col, ix, e, to, &placement] {
        rt.migrate(col, ix, placement[e][static_cast<std::size_t>(to)]);
      });
    }
    m.run();
  };

  // Warm-up: the first burst teaches PE 0 every location; each later one
  // reaches a stale cache.  The measured burst repeats the second one's
  // pattern exactly (cache says placement 0, elements at placement 1).
  burst();
  move_all(1);
  burst();
  move_all(0);
  burst();
  move_all(1);

  const charm::PayloadPool& pool = rt.payload_pool();
  const std::uint64_t pool_allocs = pool.misses() + pool.grows();
  const std::uint64_t msgs = rt.messages_sent();
  const std::uint64_t fwds = rt.forwards();
  g_allocs = 0;
  g_counting = true;
  burst();
  g_counting = false;
  const BurstCounts counts{g_allocs, pool.misses() + pool.grows() - pool_allocs};

  EXPECT_EQ(rt.forwards() - fwds, 2u * kSends) << "stale bounce + home forward";
  EXPECT_EQ(rt.messages_sent() - msgs, 4u * kSends)
      << "send, bounce, forward and teach per message";
  EXPECT_EQ(rt.outstanding(), 0);
  return counts;
}

TEST(ZeroAlloc, CrossPeBurstClosuresLiveInTheirEventSlots) {
  // PingMsg packs to 4 bytes, inline in the Envelope: the point-send,
  // bounce, forward and teach messages are their event slots and nothing
  // else, so the whole burst allocates nothing, however far it outruns the
  // payload pool's retention.
  const BurstCounts c =
      cross_pe_burst<PingSink, &PingSink::take>([](int i) { return PingMsg{i}; });
  EXPECT_EQ(c.allocs, 0u) << "a small cross-PE message must be its event slot alone";
  EXPECT_EQ(c.pool_allocs, 0u);
}

TEST(ZeroAlloc, CrossPeBulkBurstAllocatesOnlyPayloadBuffers) {
  // The same burst with a 960-byte argument: the payload needs a heap
  // buffer, and the burst outruns the pool's retention, so buffers are
  // allocated, but only as pool misses or grows; the message closures still
  // live inline in their event slots.
  const BurstCounts c = cross_pe_burst<BulkSink, &BulkSink::take>([](int i) {
    BulkMsg big;
    big.data[0] = static_cast<double>(i);
    return big;
  });
  EXPECT_GT(c.pool_allocs, 0u) << "the burst must outrun the payload pool's retention";
  EXPECT_EQ(c.allocs, c.pool_allocs) << "message closures must not allocate";
}

TEST(PayloadPoolFootprint, RetainedCapacityIsCounted) {
  // The footprint counts the capacity parked on both pools' free lists,
  // kept current on every acquire and release.
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m);
  EXPECT_EQ(rt.memory_footprint().payload_pool_bytes, 0u);

  std::vector<std::byte> a = rt.acquire_payload(100);
  std::vector<std::byte> b = rt.acquire_payload(3000);
  std::vector<double> n = rt.acquire_nums(10);
  const std::size_t bytes =
      a.capacity() + b.capacity() + n.capacity() * sizeof(double);
  rt.release_payload(std::move(a));
  rt.release_payload(std::move(b));
  rt.release_nums(std::move(n));
  const charm::Runtime::MemoryFootprint f = rt.memory_footprint();
  EXPECT_EQ(f.payload_pool_bytes, bytes);
  EXPECT_EQ(f.total(), f.pe_state_bytes + f.collection_bytes + f.event_queue_bytes + bytes);

  // Warm the pool with real traffic: 960-byte payloads cycle through it.
  auto arr = charm::ArrayProxy<BulkSink>::create(rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, 1 + i % 7);
  rt.on_pe(0, [&] {
    for (int i = 0; i < 64; ++i) arr[i % 16].send<&BulkSink::take>(BulkMsg{});
  });
  m.run();
  const charm::PayloadPool& pool = rt.payload_pool();
  EXPECT_GE(pool.retained_bytes(), pool.free_buffers() * sizeof(BulkMsg));
  EXPECT_EQ(rt.memory_footprint().payload_pool_bytes,
            pool.retained_bytes() + rt.nums_pool().retained_bytes());

  // An acquire takes its buffer's capacity off the count.
  const std::size_t before = pool.retained_bytes();
  std::vector<std::byte> c = rt.acquire_payload(1);
  EXPECT_EQ(pool.retained_bytes(), before - c.capacity());
}

// POD reductions recycle everything in steady state: contribution values land
// in pooled NumsPool buffers, combine happens in place, map nodes cycle
// through per-collection spares, and the result buffer returns to the pool
// after the callback runs.  Rounds are driven sequentially (the completion
// callback launches the next round) so exactly one reduction is in flight.
class RoundContributor : public charm::ArrayElement<RoundContributor, std::int32_t> {
 public:
  void poke(charm::ReduceOp op) {
    contribute(static_cast<double>(index()), op, cb);
  }
  static charm::Callback cb;
};

charm::Callback RoundContributor::cb;

/// Sequential round driver: the completion callback launches the next round,
/// so exactly one reduction is in flight and every pooled resource cycles.
/// The callback is built once, outside the counted region; `drive` resets the
/// round counter and re-launches without allocating.
struct ReductionDriver {
  charm::Runtime& rt;
  std::vector<std::vector<RoundContributor*>>& by_pe;
  int round = 0;
  int target = 0;
  int mismatches = 0;  ///< rounds whose result was wrong (checked in-callback)
  double expect_sum = 0, expect_min = 0, expect_max = 0;

  void launch() {
    const charm::ReduceOp op = round % 3 == 0   ? charm::ReduceOp::kSum
                               : round % 3 == 1 ? charm::ReduceOp::kMin
                                                : charm::ReduceOp::kMax;
    for (int pe = 0; pe < static_cast<int>(by_pe.size()); ++pe) {
      rt.on_pe(pe, [this, pe, op] {
        for (RoundContributor* e : by_pe[static_cast<std::size_t>(pe)]) e->poke(op);
      });
    }
  }

  void install_callback() {
    RoundContributor::cb =
        charm::Callback::to_function([this](charm::ReductionResult&& r) {
          const double want = round % 3 == 0   ? expect_sum
                              : round % 3 == 1 ? expect_min
                                               : expect_max;
          if (r.num(0) != want) ++mismatches;
          if (++round < target) launch();
        });
  }

  /// Runs `rounds` rounds; returns the number of wrong results (0 = all ok).
  int drive(sim::Machine& m, int rounds) {
    round = 0;
    target = rounds;
    mismatches = 0;
    launch();
    m.run();
    return mismatches;
  }
};

std::vector<std::vector<RoundContributor*>> elements_by_pe(
    charm::Runtime& rt, charm::ArrayProxy<RoundContributor>& arr, int nelems) {
  std::vector<std::vector<RoundContributor*>> by_pe(
      static_cast<std::size_t>(rt.npes()));
  for (int i = 0; i < nelems; ++i) {
    for (int pe = 0; pe < rt.npes(); ++pe) {
      auto* e = rt.collection(arr.id())
                    .find(pe, charm::IndexTraits<std::int32_t>::encode(i));
      if (e != nullptr)
        by_pe[static_cast<std::size_t>(pe)].push_back(
            static_cast<RoundContributor*>(e));
    }
  }
  return by_pe;
}

TEST(ZeroAlloc, SteadyStateScalarReductionDoesNotAllocate) {
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<RoundContributor>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  auto by_pe = elements_by_pe(rt, arr, 32);
  ReductionDriver d{rt, by_pe};
  d.expect_sum = 31.0 * 32 / 2;
  d.expect_min = 0.0;
  d.expect_max = 31.0;
  d.install_callback();

  // Warm-up: populates the nums pool, the redux map-node spares, the event
  // arena, and the closure block cache.
  EXPECT_EQ(d.drive(m, 50), 0);

  m.resume();
  g_allocs = 0;
  g_counting = true;
  const int bad = d.drive(m, 500);
  g_counting = false;
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state POD reductions must be allocation-free";

  const charm::NumsPool& pool = rt.nums_pool();
  EXPECT_GT(pool.hits(), 0u) << "contribution buffers must come from the pool";
  EXPECT_GT(pool.free_buffers(), 0u)
      << "result buffers must return to the pool after the callback";
}

TEST(ZeroAlloc, SteadyStateTreeReductionDoesNotAllocate) {
  // Same gate on the distributed spanning-tree path: partial-combine slots,
  // up-sweep kick closures, and partial messages must all recycle.
  charm::RuntimeConfig cfg;
  cfg.collectives = charm::CollectiveTopology::kTree;
  cfg.tree_fanout = 2;
  sim::Machine m(sim::MachineConfig{8, {}, 4});
  charm::Runtime rt(m, cfg);
  auto arr = charm::ArrayProxy<RoundContributor>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  auto by_pe = elements_by_pe(rt, arr, 32);
  ReductionDriver d{rt, by_pe};
  d.expect_sum = 31.0 * 32 / 2;
  d.expect_min = 0.0;
  d.expect_max = 31.0;
  d.install_callback();

  EXPECT_EQ(d.drive(m, 50), 0);
  const std::uint64_t partials_before = rt.reduction_partials_sent();

  m.resume();
  g_allocs = 0;
  g_counting = true;
  const int bad = d.drive(m, 200);
  g_counting = false;
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state tree reductions must be allocation-free";
  EXPECT_EQ(rt.reduction_partials_sent() - partials_before, 200u * 7u)
      << "every round routes one partial per non-root PE";

  const charm::NumsPool& pool = rt.nums_pool();
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.free_buffers(), 0u);
}

TEST(ZeroAlloc, SteadyStateSamePeTypedSendDoesNotAllocate) {
  // Same-PE sends of a small argument take the typed fast path: the
  // argument moves through the delivery closure, inline in its event slot —
  // no pack, no unpack, no pool.  A ~1 KiB argument would not fit the
  // closure's inline buffer, so it takes the packed path instead, and after
  // warm-up the payload pool serves every one of its buffers: the steady
  // state allocates nothing for either size.
  sim::Machine m(sim::MachineConfig{4, {}, 4});
  charm::Runtime rt(m);
  auto small = charm::ArrayProxy<PingSink>::create(rt);
  auto bulk = charm::ArrayProxy<BulkSink>::create(rt);
  for (int i = 0; i < 16; ++i) small.seed(i, 0);
  for (int i = 0; i < 16; ++i) bulk.seed(i, 0);

  auto drive = [&](int rounds) {
    rt.on_pe(0, [&, rounds] {
      for (int i = 0; i < rounds; ++i) {
        small[i % 16].send<&PingSink::take>(PingMsg{i});
        BulkMsg big;
        big.data[0] = static_cast<double>(i);
        bulk[i % 16].send<&BulkSink::take>(std::move(big));
      }
    });
    m.run();
  };

  drive(2000);  // warm the payload pool and event arena

  const charm::PayloadPool& pool = rt.payload_pool();
  const std::uint64_t hits = pool.hits();
  const std::uint64_t pool_allocs = pool.misses() + pool.grows();
  g_allocs = 0;
  g_counting = true;
  drive(2000);
  g_counting = false;
  EXPECT_EQ(g_allocs, 0u)
      << "steady-state same-PE typed send→deliver must be allocation-free";

  // One pool hit per BulkMsg send and none for the PingMsg sends, which
  // pack nothing.
  EXPECT_EQ(pool.misses() + pool.grows() - pool_allocs, 0u)
      << "the payload pool must serve every BulkMsg buffer";
  EXPECT_EQ(pool.hits() - hits, 2000u);
}

/// 16-byte argument: same-PE typed delivery closures are sized to hold one
/// this large inline.
struct PairMsg {
  std::int64_t a = 0;
  std::int64_t b = 0;
  template <class P>
  void pup(P& p) {
    p | a;
    p | b;
  }
};

class PairSink : public charm::ArrayElement<PairSink, std::int32_t> {
 public:
  std::int64_t sum = 0;
  void take(const PairMsg& m) { sum += m.a + m.b; }
};

TEST(ZeroAlloc, SamePeTypedClosuresWithSixteenByteArgumentsLiveInTheirEventSlots) {
  // One handler puts more same-PE typed sends in flight than the closure
  // block cache retains, so a delivery closure that boxed would allocate
  // once the cache runs dry.  After a warm-up burst sizes the event arena
  // and the ready queue, the same burst must not allocate at all.
  static_assert(sizeof(PairMsg) == 16);
  constexpr int kSends = 10000;
  static_assert(kSends > sim::detail::BlockCache::kMaxFreeBlocks);
  sim::Machine m(sim::MachineConfig{2, {}, 4});
  charm::Runtime rt(m);
  auto arr = charm::ArrayProxy<PairSink>::create(rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, 0);

  auto burst = [&] {
    rt.on_pe(0, [&arr] {
      for (int i = 0; i < kSends; ++i)
        arr[i % 16].send<&PairSink::take>(PairMsg{i, 1});
    });
    m.run();
  };
  burst();

  const std::uint64_t msgs = rt.messages_sent();
  g_allocs = 0;
  g_counting = true;
  burst();
  g_counting = false;
  EXPECT_EQ(rt.messages_sent() - msgs, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(g_allocs, 0u)
      << "a same-PE typed closure with a 16-byte argument must stay inline";
  EXPECT_EQ(rt.outstanding(), 0);
}

}  // namespace
