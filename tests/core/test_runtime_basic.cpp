// Core runtime behaviour: entry-method invocation, argument delivery,
// chare-to-chare messaging, broadcasts, dynamic insertion/destruction,
// message priorities, virtual-time accounting, and the inline/heap payload
// boundary of point sends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/charm.hpp"

#include "test_util.hpp"

namespace {

using charm::ArrayProxy;
using charm::Callback;
using charm::ReductionResult;

struct PingMsg {
  int value = 0;
  int from = -1;
  void pup(pup::Er& p) {
    p | value;
    p | from;
  }
};

class Counter : public charm::ArrayElement<Counter, std::int32_t> {
 public:
  int received = 0;
  int last = 0;
  std::vector<int> seen;

  void recv(const PingMsg& m) {
    ++received;
    last = m.value;
    seen.push_back(m.value);
    charm::charge(1e-6);
  }
  void bump() { ++received; }

  void forward(const PingMsg& m) {
    // Relay to the next element (tests element-to-element sends).
    ++received;
    if (m.value > 0) {
      ArrayProxy<Counter> peers(collection_id());
      PingMsg next{m.value - 1, static_cast<int>(index())};
      peers[(index() + 1) % 8].send<&Counter::forward>(next);
    }
  }

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | received;
    p | last;
    p | seen;
  }
};

using charmtest::Harness;

Counter* find_counter(Harness& h, charm::CollectionId col, std::int32_t ix) {
  for (int pe = 0; pe < h.rt.npes(); ++pe) {
    auto* found = h.rt.collection(col).find(pe, charm::IndexTraits<std::int32_t>::encode(ix));
    if (found) return static_cast<Counter*>(found);
  }
  return nullptr;
}

TEST(RuntimeBasic, PointSendInvokesEntryWithArgument) {
  Harness h(4);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.on_pe(0, [&] { arr[5].send<&Counter::recv>(PingMsg{42, 0}); });
  h.machine.run();
  Counter* c = find_counter(h, arr.id(), 5);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->received, 1);
  EXPECT_EQ(c->last, 42);
}

TEST(RuntimeBasic, NoArgEntry) {
  Harness h(2);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  arr.seed(0, 0);
  h.rt.on_pe(0, [&] { arr[0].send<&Counter::bump>(); });
  h.machine.run();
  EXPECT_EQ(find_counter(h, arr.id(), 0)->received, 1);
}

TEST(RuntimeBasic, ChareToChareRelayChain) {
  Harness h(4);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.rt.on_pe(0, [&] { arr[0].send<&Counter::forward>(PingMsg{16, -1}); });
  h.machine.run();
  int total = 0;
  for (int i = 0; i < 8; ++i) total += find_counter(h, arr.id(), i)->received;
  EXPECT_EQ(total, 17);  // initial + 16 relays
}

TEST(RuntimeBasic, BroadcastReachesEveryElement) {
  Harness h(4);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  for (int i = 0; i < 20; ++i) arr.seed(i, i % 4);
  h.rt.on_pe(0, [&] { arr.broadcast<&Counter::recv>(PingMsg{7, -1}); });
  h.machine.run();
  for (int i = 0; i < 20; ++i) {
    Counter* c = find_counter(h, arr.id(), i);
    EXPECT_EQ(c->received, 1) << i;
    EXPECT_EQ(c->last, 7) << i;
  }
}

TEST(RuntimeBasic, VirtualTimeAdvancesWithChargedWork) {
  Harness h(1);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  arr.seed(0, 0);
  h.rt.on_pe(0, [&] {
    for (int i = 0; i < 100; ++i) arr[0].send<&Counter::recv>(PingMsg{i, -1});
  });
  h.machine.run();
  // 100 messages x 1us of charged work each, plus overheads.
  EXPECT_GE(h.machine.pe(0).busy_time(), 100e-6);
  EXPECT_GE(h.machine.max_pe_clock(), 100e-6);
}

TEST(RuntimeBasic, MessagesCountedAndQuiesce) {
  Harness h(4);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  bool qd_fired = false;
  h.rt.on_pe(0, [&] {
    arr[0].send<&Counter::forward>(PingMsg{30, -1});
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      qd_fired = true;
      // At quiescence every relay must have been processed.
      int total = 0;
      for (int i = 0; i < 8; ++i) total += find_counter(h, arr.id(), i)->received;
      EXPECT_EQ(total, 31);
    }));
  });
  h.machine.run();
  EXPECT_TRUE(qd_fired);
  EXPECT_EQ(h.rt.outstanding(), 0);
}

class Spawnable : public charm::ArrayElement<Spawnable, std::int32_t> {
 public:
  Spawnable() = default;
  explicit Spawnable(const PingMsg& m) : tag(m.value) {}
  int tag = -1;
  int received = 0;
  std::vector<int> order;  ///< every received value, in delivery order
  void recv(const PingMsg& m) {
    ++received;
    tag = m.value;
    order.push_back(m.value);
  }
  void die() { charm::Runtime::current().destroy_self(); }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | tag;
    p | received;
    p | order;
  }
};

TEST(RuntimeBasic, InsertCreatesElementAndDeliversLaterSends) {
  // Sends that race the creation are parked at the home PE and must all be
  // delivered once the element lands, in the order they were sent.  Sending
  // before the insert guarantees every message reaches the home first.
  for (const bool sends_first : {false, true}) {
  for (int n : {1, 8}) {
    SCOPED_TRACE(testing::Message() << n << " racing sends, sends_first " << sends_first);
    Harness h(4);
    auto arr = ArrayProxy<Spawnable>::create(h.rt);
    arr.seed(0, 0);
    h.rt.on_pe(0, [&] {
      if (!sends_first) arr.insert(42, PingMsg{1234, 0});
      for (int i = 0; i < n; ++i) arr[42].send<&Spawnable::recv>(PingMsg{5 + i, -1});
      if (sends_first) arr.insert(42, PingMsg{1234, 0});
    });
    h.machine.run();
    Spawnable* s = nullptr;
    for (int pe = 0; pe < 4; ++pe) {
      auto* found = h.rt.collection(arr.id()).find(pe, charm::IndexTraits<std::int32_t>::encode(42));
      if (found) s = static_cast<Spawnable*>(found);
    }
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->received, n);
    std::vector<int> sent;
    for (int i = 0; i < n; ++i) sent.push_back(5 + i);
    EXPECT_EQ(s->order, sent);
    EXPECT_EQ(s->tag, 5 + n - 1);
    EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 2);
    EXPECT_EQ(h.rt.outstanding(), 0);
  }
  }
}

TEST(RuntimeBasic, DestroySelfRemovesElement) {
  Harness h(2);
  auto arr = ArrayProxy<Spawnable>::create(h.rt);
  arr.seed(0, 0);
  arr.seed(1, 1);
  h.rt.on_pe(0, [&] { arr[1].send<&Spawnable::die>(); });
  h.machine.run();
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 1);
  EXPECT_EQ(h.rt.collection(arr.id()).find(1, charm::IndexTraits<std::int32_t>::encode(1)),
            nullptr);
}

class PrioObserver : public charm::ArrayElement<PrioObserver, std::int32_t> {
 public:
  std::vector<int> order;
  void busy() { charm::charge(1e-3); }
  void tag(const PingMsg& m) { order.push_back(m.value); }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | order;
  }
};

TEST(RuntimeBasic, PrioritizedMessagesJumpTheQueue) {
  Harness h(1);
  auto arr = ArrayProxy<PrioObserver>::create(h.rt);
  arr.seed(0, 0);
  h.rt.on_pe(0, [&] {
    arr[0].send<&PrioObserver::busy>();  // occupy the PE
    arr[0].send<&PrioObserver::tag>(PingMsg{1, -1}, charm::kLowPriority);
    arr[0].send<&PrioObserver::tag>(PingMsg{2, -1}, charm::kHighPriority);
  });
  h.machine.run();
  auto* o = static_cast<PrioObserver*>(
      h.rt.collection(arr.id()).find(0, charm::IndexTraits<std::int32_t>::encode(0)));
  ASSERT_EQ(o->order.size(), 2u);
  EXPECT_EQ(o->order[0], 2);
  EXPECT_EQ(o->order[1], 1);
}

/// The runtime's traffic counters at one instant; differences of two
/// snapshots pin what one message kind costs.
struct Traffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::int64_t outstanding = 0;

  static Traffic of(const charm::Runtime& rt) {
    return {rt.messages_sent(), rt.bytes_sent(), rt.outstanding()};
  }
  Traffic operator-(const Traffic& o) const {
    return {msgs - o.msgs, bytes - o.bytes, outstanding - o.outstanding};
  }
  friend bool operator==(const Traffic&, const Traffic&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Traffic& t) {
    return os << "{msgs " << t.msgs << ", bytes " << t.bytes << ", outstanding "
              << t.outstanding << "}";
  }
};

/// Contributes 1 to a sum reduction and records what the contribute call
/// itself sent.
class Adder : public charm::ArrayElement<Adder, std::int32_t> {
 public:
  static inline std::vector<Traffic> at_contribute;
  static inline Callback done;
  void add() {
    const Traffic before = Traffic::of(charm::runtime());
    contribute(1.0, charm::ReduceOp::kSum, done);
    at_contribute.push_back(Traffic::of(charm::runtime()) - before);
  }
};

TEST(RuntimeBasic, EachMessageKindCountsOnceWithItsWireBytes) {
  // Every runtime message passes one counted send: at the send it adds one
  // message, its modeled wire bytes and one outstanding message, and the
  // outstanding count returns to zero once its handler has run (or was
  // skipped at a dead PE).
  constexpr std::uint64_t kHdr = charm::Envelope::kHeaderBytes;
  ASSERT_EQ(kHdr, 48u);
  ASSERT_EQ(pup::size_of(PingMsg{}), 8u);
  constexpr std::uint64_t kPing = kHdr + 8;
  constexpr std::uint64_t kControl16 = kHdr + 16;
  constexpr std::uint64_t kFunctionCallback = kHdr + 64;

  Harness h(4);
  auto arr = ArrayProxy<Counter>::create(h.rt);
  auto index_homed_at = [&](int home) {
    std::int32_t i = 0;
    while (h.rt.home_pe(charm::IndexTraits<std::int32_t>::encode(i)) != home) ++i;
    return i;
  };
  // Distinct homes, so three distinct elements.
  const std::int32_t at_home = index_homed_at(2);  // lives at its home, PE 2
  const std::int32_t local = index_homed_at(3);    // lives on the sender, PE 0
  const std::int32_t away = index_homed_at(1);     // home PE 1, lives on PE 3
  arr.seed(at_home, 2);
  arr.seed(local, 0);
  arr.seed(away, 3);

  // Runs `send` in a handler on PE 0; returns the change across the call
  // and the change once the machine has drained.
  auto measure = [&](auto&& send) {
    Traffic before, sent;
    h.rt.on_pe(0, [&] {
      before = Traffic::of(h.rt);
      send();
      sent = Traffic::of(h.rt);
    });
    h.machine.run();
    return std::pair{sent - before, Traffic::of(h.rt) - before};
  };
  auto ping = [&](std::int32_t ix) { arr[ix].send<&Counter::recv>(PingMsg{1, 0}); };
  const std::uint64_t fwd0 = h.rt.forwards();

  // Packed cross-PE point send, straight to the element's home.
  auto [cross_sent, cross_done] = measure([&] { ping(at_home); });
  EXPECT_EQ(cross_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(cross_done, (Traffic{1, kPing, 0}));

  // Typed same-PE send: same wire size, no pack.
  auto [typed_sent, typed_done] = measure([&] { ping(local); });
  EXPECT_EQ(typed_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(typed_done, (Traffic{1, kPing, 0}));
  EXPECT_EQ(h.rt.forwards(), fwd0);

  // Forward through the home: send to the home, home forward to the
  // element, and a 16-byte control message teaching the sender.
  auto [fwd_sent, fwd_done] = measure([&] { ping(away); });
  EXPECT_EQ(fwd_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(fwd_done, (Traffic{3, kPing + kControl16 + kPing, 0}));
  EXPECT_EQ(h.rt.forwards(), fwd0 + 1);
  // Taught: the next send goes straight to the element.
  auto [taught_sent, taught_done] = measure([&] { ping(away); });
  EXPECT_EQ(taught_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(taught_done, (Traffic{1, kPing, 0}));
  EXPECT_EQ(h.rt.forwards(), fwd0 + 1);

  // Control message.
  auto [ctl_sent, ctl_done] = measure([&] { h.rt.send_control(3, 16, [] {}); });
  EXPECT_EQ(ctl_sent, (Traffic{1, kControl16, 1}));
  EXPECT_EQ(ctl_done, (Traffic{1, kControl16, 0}));

  // Broadcast: the root leg leaves at once, one leg per PE in all.
  auto [bc_sent, bc_done] = measure([&] { arr.broadcast<&Counter::recv>(PingMsg{2, 0}); });
  EXPECT_EQ(bc_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(bc_done, (Traffic{4, 4 * kPing, 0}));

  // Reduction completion: the last contribution posts the completion, one
  // message with no wire bytes; its function callback is one control
  // message.  The header-only broadcast starting the round is 4 legs.
  auto adders = ArrayProxy<Adder>::create(h.rt);
  for (int i = 0; i < 8; ++i) adders.seed(i, i % 4);
  double total = 0;
  Adder::done = Callback::to_function([&](ReductionResult&& r) { total = r.num(); });
  Adder::at_contribute.clear();
  auto [red_sent, red_done] = measure([&] { adders.broadcast<&Adder::add>(); });
  EXPECT_EQ(total, 8.0);
  EXPECT_EQ(red_sent, (Traffic{1, kHdr, 1}));
  EXPECT_EQ(red_done, (Traffic{4 + 1 + 1, 4 * kHdr + 0 + kFunctionCallback, 0}));
  ASSERT_EQ(Adder::at_contribute.size(), 8u);
  EXPECT_EQ(std::count(Adder::at_contribute.begin(), Adder::at_contribute.end(),
                       (Traffic{1, 0, 1})),
            1)
      << "exactly one contribution completes the reduction";
  EXPECT_EQ(std::count(Adder::at_contribute.begin(), Adder::at_contribute.end(), Traffic{}),
            7);

  // A send to a dead PE still counts, is dropped on arrival, and QD still
  // balances; the QD callback is one more control message.
  Counter* victim = find_counter(h, arr.id(), at_home);
  const int received = victim->received;
  h.machine.fail_pe(2);
  bool quiet = false;
  auto [dead_sent, dead_done] = measure([&] {
    ping(at_home);
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) { quiet = true; }));
  });
  EXPECT_EQ(dead_sent, (Traffic{1, kPing, 1}));
  EXPECT_EQ(dead_done, (Traffic{2, kPing + kFunctionCallback, 0}));
  EXPECT_TRUE(quiet);
  EXPECT_EQ(victim->received, received);
  EXPECT_EQ(h.rt.outstanding(), 0);
}

// ---- payload boundary ---------------------------------------------------------

/// 32 bytes through the whole-object memcpy path: the largest argument that
/// rides inline in an Envelope.
struct Inline32 {
  double a = 0, b = 0, c = 0, d = 0;
  template <class P>
  void pup(P& p) {
    p | a;
    p | b;
    p | c;
    p | d;
  }
};

/// 40 bytes through the memcpy path: one word past the inline bytes.
struct Heap40 {
  double a = 0, b = 0, c = 0, d = 0, e = 0;
  template <class P>
  void pup(P& p) {
    p | a;
    p | b;
    p | c;
    p | d;
    p | e;
  }
};

/// A dynamic type (length-prefixed vector) that packs to under 32 bytes.
struct SmallDynamic {
  std::vector<std::int32_t> ids;
  template <class P>
  void pup(P& p) {
    p | ids;
  }
};

}  // namespace

template <>
struct pup::MemCopyable<Inline32> : std::true_type {
  static constexpr std::size_t kFieldBytes = 4 * sizeof(double);
};
template <>
struct pup::MemCopyable<Heap40> : std::true_type {
  static constexpr std::size_t kFieldBytes = 5 * sizeof(double);
};

namespace {

/// Records the repacked bytes of every argument it receives and of the
/// constructor argument it was created with.
class ByteSink : public charm::ArrayElement<ByteSink, std::int32_t> {
 public:
  ByteSink() = default;
  explicit ByteSink(const Inline32& m) : created(pup::to_bytes(m)) {}
  std::vector<std::byte> created;
  std::vector<std::vector<std::byte>> got;
  template <class T>
  void take(const T& m) {
    got.push_back(pup::to_bytes(m));
  }
};

std::vector<std::byte> bytes_of(const charm::Payload& p) {
  return std::vector<std::byte>(p.data(), p.data() + p.size());
}

std::uint64_t pool_acquires(const charm::Runtime& rt) {
  const charm::PayloadPool& pool = rt.payload_pool();
  return pool.hits() + pool.misses() + pool.grows();
}

/// Sends `msg` from PE 0 to an element on PE 1 and returns what it received.
template <class T>
std::vector<std::vector<std::byte>> send_across(Harness& h, const T& msg) {
  auto arr = ArrayProxy<ByteSink>::create(h.rt);
  arr.seed(0, 1);
  h.rt.on_pe(0, [&] { arr[0].send<&ByteSink::take<T>>(msg); });
  h.machine.run();
  EXPECT_EQ(h.rt.outstanding(), 0);
  ByteSink* s = h.find<ByteSink>(arr.id(), 0);
  return s == nullptr ? std::vector<std::vector<std::byte>>{} : s->got;
}

TEST(PayloadBoundary, ThirtyTwoByteMemCopyableArgumentRidesInline) {
  static_assert(pup::mem_copyable<Inline32>);
  static_assert(sizeof(Inline32) == charm::Payload::kInlineBytes);
  const Inline32 msg{1.5, -2.0, 3.25, 4e9};
  Harness h(2);
  charm::Payload p = h.rt.pack_pooled(msg);
  EXPECT_FALSE(p.on_heap());
  EXPECT_EQ(bytes_of(p), pup::to_bytes(msg));
  EXPECT_EQ(send_across(h, msg), std::vector<std::vector<std::byte>>{pup::to_bytes(msg)});
  EXPECT_EQ(pool_acquires(h.rt), 0u) << "an inline payload never touches the pool";
}

TEST(PayloadBoundary, FortyByteMemCopyableArgumentUsesAPooledHeapBuffer) {
  static_assert(pup::mem_copyable<Heap40>);
  const Heap40 msg{1, 2, 3, 4, 5};
  Harness h(2);
  charm::Payload p = h.rt.pack_pooled(msg);
  EXPECT_TRUE(p.on_heap());
  EXPECT_EQ(bytes_of(p), pup::to_bytes(msg));
  h.rt.release_payload(std::move(p));
  EXPECT_EQ(h.rt.payload_pool().free_buffers(), 1u);
  EXPECT_EQ(send_across(h, msg), std::vector<std::vector<std::byte>>{pup::to_bytes(msg)});
  EXPECT_EQ(h.rt.payload_pool().hits(), 1u) << "the send reuses the released buffer";
  EXPECT_EQ(h.rt.payload_pool().free_buffers(), 1u) << "and delivery hands it back";
}

TEST(PayloadBoundary, SmallDynamicArgumentIsCopiedInline) {
  static_assert(!pup::mem_copyable<SmallDynamic>);
  const SmallDynamic msg{{7, -8, 9}};
  ASSERT_LE(pup::size_of(msg), charm::Payload::kInlineBytes);
  Harness h(2);
  charm::Payload p = h.rt.pack_pooled(msg);
  EXPECT_FALSE(p.on_heap());
  EXPECT_EQ(bytes_of(p), pup::to_bytes(msg));
  EXPECT_EQ(h.rt.payload_pool().free_buffers(), 1u)
      << "the packing buffer goes straight back to the pool";
  EXPECT_EQ(send_across(h, msg), std::vector<std::vector<std::byte>>{pup::to_bytes(msg)});
}

/// An index homed at `home`.
std::int32_t index_homed_at(const charm::Runtime& rt, int home) {
  std::int32_t i = 0;
  while (rt.home_pe(charm::IndexTraits<std::int32_t>::encode(i)) != home) ++i;
  return i;
}

TEST(PayloadBoundary, InlinePayloadParkedAtTheHomeIsDeliveredAfterInsert) {
  // The send reaches the home before the element exists there, so the home
  // parks it; the insert's arrival releases it to the new element.
  Harness h(4);
  auto arr = ArrayProxy<ByteSink>::create(h.rt);
  const std::int32_t ix = index_homed_at(h.rt, 2);
  const Inline32 msg{9, 8, 7, 6};
  h.rt.on_pe(0, [&] {
    arr[ix].send<&ByteSink::take<Inline32>>(msg);
    arr.insert(ix, Inline32{}, /*pe_hint=*/3);
  });
  h.machine.run();
  int pe = -1;
  ByteSink* s = h.find<ByteSink>(arr.id(), ix, &pe);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pe, 3);
  EXPECT_EQ(s->got, std::vector<std::vector<std::byte>>{pup::to_bytes(msg)});
  EXPECT_EQ(h.rt.outstanding(), 0);
  EXPECT_EQ(pool_acquires(h.rt), 0u);
}

TEST(PayloadBoundary, CreateMessageCarriesAnInlineConstructorArgument) {
  Harness h(4);
  auto arr = ArrayProxy<ByteSink>::create(h.rt);
  const Inline32 arg{0.5, 0.25, 0.125, 0.0625};
  h.rt.on_pe(0, [&] { arr.insert(5, arg, /*pe_hint=*/2); });
  h.machine.run();
  int pe = -1;
  ByteSink* s = h.find<ByteSink>(arr.id(), 5, &pe);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(pe, 2);
  EXPECT_EQ(s->created, pup::to_bytes(arg));
  EXPECT_EQ(pool_acquires(h.rt), 0u);
}

TEST(PayloadBoundary, SendToADeadPeDropsInlineAndRecyclesHeapPayloads) {
  // The element lives at its home, so both sends go straight to the dead PE.
  Harness h(4);
  auto arr = ArrayProxy<ByteSink>::create(h.rt);
  const std::int32_t ix = index_homed_at(h.rt, 1);
  arr.seed(ix, 1);
  h.machine.fail_pe(1);
  h.rt.on_pe(0, [&] {
    arr[ix].send<&ByteSink::take<Inline32>>(Inline32{1, 2, 3, 4});
    arr[ix].send<&ByteSink::take<Heap40>>(Heap40{1, 2, 3, 4, 5});
  });
  h.machine.run();
  EXPECT_EQ(h.rt.outstanding(), 0);
  EXPECT_EQ(h.rt.messages_sent(), 2u);
  EXPECT_TRUE(h.find<ByteSink>(arr.id(), ix)->got.empty());
  EXPECT_EQ(h.rt.payload_pool().misses(), 1u) << "only the 40-byte payload is on the heap";
  EXPECT_EQ(h.rt.payload_pool().free_buffers(), 1u) << "the dead PE recycles it";
}

TEST(RuntimeBasic, GroupHasOneElementPerPe) {
  Harness h(6);
  struct G : charm::Group<G> {
    int pokes = 0;
    void poke() { ++pokes; }
  };
  auto grp = charm::GroupProxy<G>::create(h.rt);
  h.rt.on_pe(0, [&] {
    grp.broadcast<&G::poke>();
    grp.on(3).send<&G::poke>();
  });
  h.machine.run();
  EXPECT_EQ(h.rt.collection(grp.id()).total_elements, 6);
  for (int pe = 0; pe < 6; ++pe) {
    auto* g = static_cast<G*>(
        h.rt.collection(grp.id()).find(pe, charm::IndexTraits<std::int32_t>::encode(pe)));
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->pokes, pe == 3 ? 2 : 1);
  }
}

}  // namespace
