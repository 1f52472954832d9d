// TRAM aggregation/routing tests and malleable shrink/expand tests.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ft/mem_checkpoint.hpp"
#include "malleability/malleability.hpp"
#include "runtime/charm.hpp"
#include "tram/tram.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

struct ItemMsg {
  int v = 0;
  void pup(pup::Er& p) { p | v; }
};

class Sink : public charm::ArrayElement<Sink, std::int32_t> {
 public:
  std::vector<int> got;
  void take(const ItemMsg& m) {
    got.push_back(m.v);
    charm::charge(0.1e-6);
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | got;
  }
};

using charmtest::Harness;

Sink* find_sink(Runtime& rt, CollectionId col, std::int32_t ix) {
  for (int pe = 0; pe < rt.npes(); ++pe) {
    auto* f = rt.collection(col).find(pe, IndexTraits<std::int32_t>::encode(ix));
    if (f) return static_cast<Sink*>(f);
  }
  return nullptr;
}

TEST(Tram, AllItemsDeliveredExactlyOnce) {
  Harness h(27);  // 3x3x3 torus: multi-hop routing exercised
  auto arr = ArrayProxy<Sink>::create(h.rt);
  const int nelems = 54;
  for (int i = 0; i < nelems; ++i) arr.seed(i, i % 27);
  tram::Stream<&Sink::take> stream(h.rt, arr, 8);

  const int per_sender = 40;
  bool flushed = false;
  h.rt.on_pe(0, [&] {
    sim::Rng rng(5);
    for (int k = 0; k < per_sender; ++k) {
      stream.send(static_cast<std::int32_t>(rng.next_below(nelems)), ItemMsg{k});
    }
    stream.flush_all();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      flushed = true;
    }));
  });
  h.machine.run();
  ASSERT_TRUE(flushed);

  int total = 0;
  for (int i = 0; i < nelems; ++i) total += static_cast<int>(find_sink(h.rt, arr.id(), i)->got.size());
  EXPECT_EQ(total, per_sender);
  EXPECT_EQ(stream.core().items_inserted(), static_cast<std::uint64_t>(per_sender));
}

TEST(Tram, AggregatesFineGrainedTraffic) {
  Harness h(16);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 16; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, 32);
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 960; ++k) stream.send(static_cast<std::int32_t>(k % 15 + 1), ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  EXPECT_GT(stream.core().aggregation(), 8.0)
      << "TRAM should pack many items per network message";
}

TEST(Tram, BatchAndControlCountersAccountForWireTraffic) {
  Harness h(8);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, 16);
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 320; ++k) stream.send(static_cast<std::int32_t>(k % 7 + 1), ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  // Every item went somewhere, so batches carry payload plus the modeled
  // per-item overhead; flush_all posts one 16-byte control message per PE.
  EXPECT_EQ(stream.core().items_inserted(), 320u);
  EXPECT_GT(stream.core().batch_bytes(), 320u * 8u)
      << "batch bytes must include per-item overhead on top of payload";
  EXPECT_EQ(stream.core().control_messages(), 8u);
  EXPECT_EQ(stream.core().control_bytes(), 8u * 16u);
}

TEST(Tram, FewerMessagesThanDirectSends) {
  // The headline TRAM effect: message count collapses by the aggregation factor.
  const int items = 2000;
  std::uint64_t direct_msgs, tram_msgs;
  {
    Harness h(16);
    auto arr = ArrayProxy<Sink>::create(h.rt);
    for (int i = 0; i < 16; ++i) arr.seed(i, i);
    const std::uint64_t before = h.rt.messages_sent();
    h.rt.on_pe(0, [&] {
      sim::Rng rng(3);
      for (int k = 0; k < items; ++k)
        arr[static_cast<std::int32_t>(rng.next_below(16))].send<&Sink::take>(ItemMsg{k});
    });
    h.machine.run();
    direct_msgs = h.rt.messages_sent() - before;
  }
  {
    Harness h(16);
    auto arr = ArrayProxy<Sink>::create(h.rt);
    for (int i = 0; i < 16; ++i) arr.seed(i, i);
    tram::Stream<&Sink::take> stream(h.rt, arr, 64);
    const std::uint64_t before = h.rt.messages_sent();
    h.rt.on_pe(0, [&] {
      sim::Rng rng(3);
      for (int k = 0; k < items; ++k)
        stream.send(static_cast<std::int32_t>(rng.next_below(16)), ItemMsg{k});
      stream.flush_all();
    });
    h.machine.run();
    tram_msgs = h.rt.messages_sent() - before;
  }
  EXPECT_LT(tram_msgs * 4, direct_msgs);
}

TEST(Tram, RoutesToMigratedElements) {
  Harness h(8);
  auto arr = ArrayProxy<Sink>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i);
  tram::Stream<&Sink::take> stream(h.rt, arr, 4);
  h.rt.on_pe(5, [&] {
    // Move element 5 away from where everyone thinks it is, then stream to it.
    h.rt.migrate(arr.id(), IndexTraits<std::int32_t>::encode(5), 2);
  });
  h.machine.run();
  h.machine.resume();
  h.rt.on_pe(0, [&] {
    for (int k = 0; k < 6; ++k) stream.send(5, ItemMsg{k});
    stream.flush_all();
  });
  h.machine.run();
  EXPECT_EQ(find_sink(h.rt, arr.id(), 5)->got.size(), 6u);
}

// ---- malleability ------------------------------------------------------------

struct StepMsg {
  int remaining = 0;
  void pup(pup::Er& p) { p | remaining; }
};

class Mol : public charm::ArrayElement<Mol, std::int32_t> {
 public:
  int pending = 0;
  int iters = 0;
  void step(const StepMsg& m) {
    pending = m.remaining;
    ++iters;
    charm::charge(1e-3);
    at_sync();
  }
  void resume_from_sync() override {
    if (pending > 0) {
      charm::ArrayProxy<Mol> self(collection_id());
      self[index()].send<&Mol::step>(StepMsg{pending - 1});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | pending;
    p | iters;
  }
};

TEST(Malleability, ShrinkEvacuatesRemovedPes) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<Mol>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  rt.lb().register_collection(arr.id());
  ccs::Server server(rt);
  bool shrunk = false;
  rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) {
      shrunk = true;
    }));
    arr.broadcast<&Mol::step>(StepMsg{6});
  });
  machine.run();
  ASSERT_TRUE(shrunk);
  EXPECT_EQ(rt.active_pes(), 4);
  for (int pe = 4; pe < 8; ++pe)
    EXPECT_TRUE(rt.collection(arr.id()).local(pe).elems.empty())
        << "PE " << pe << " must be evacuated";
  int total = 0;
  for (int pe = 0; pe < 4; ++pe)
    total += static_cast<int>(rt.collection(arr.id()).local(pe).elems.size());
  EXPECT_EQ(total, 32);
}

TEST(Malleability, ShrinkThenExpandRestoresThroughput) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<Mol>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  rt.lb().register_collection(arr.id());
  ccs::Server server(rt);

  std::vector<double> round_times;
  double last = 0;
  // Observe per-round completion times via the LB history afterwards; here we
  // just drive: 4 rounds at 8 PEs, shrink, 4 rounds at 4, expand, 4 more.
  rt.on_pe(0, [&] {
    last = charm::now();
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  machine.resume();
  bool shrunk = false;
  rt.on_pe(0, [&] {
    server.request_shrink(4, Callback::to_function([&](ReductionResult&&) { shrunk = true; }));
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  ASSERT_TRUE(shrunk);
  machine.resume();
  bool expanded = false;
  rt.on_pe(0, [&] {
    server.request_expand(8, Callback::to_function([&](ReductionResult&&) { expanded = true; }));
    arr.broadcast<&Mol::step>(StepMsg{3});
  });
  machine.run();
  ASSERT_TRUE(expanded);
  EXPECT_EQ(rt.active_pes(), 8);
  // After expansion, work spreads back over all 8 PEs.
  int occupied = 0;
  for (int pe = 0; pe < 8; ++pe)
    occupied += rt.collection(arr.id()).local(pe).elems.empty() ? 0 : 1;
  EXPECT_GE(occupied, 7);
  (void)round_times;
  (void)last;
}

/// Checkpoints at `from` active PEs (of 8), reconfigures to `to`, then fails
/// PE 3: the recovery must be refused, and one from a checkpoint taken at
/// `to` PEs must bring back all 32 chares.
void recover_across_reconfiguration(int from, int to) {
  sim::Machine machine(sim::MachineConfig{8, {}, 4});
  Runtime rt(machine);
  auto arr = ArrayProxy<Mol>::create(rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 8);
  rt.lb().register_collection(arr.id());
  ccs::Server server(rt);
  ft::MemCheckpointer ckpt(rt);
  auto reconfigure = [&](int n) {
    bool done = false;
    rt.on_pe(0, [&] {
      const Callback cb = Callback::to_function([&](ReductionResult&&) { done = true; });
      if (n < rt.active_pes()) {
        server.request_shrink(n, cb);
      } else {
        server.request_expand(n, cb);
      }
      arr.broadcast<&Mol::step>(StepMsg{3});
    });
    machine.run();
    machine.resume();
    EXPECT_TRUE(done);
    EXPECT_EQ(rt.active_pes(), n);
  };
  if (from < 8) reconfigure(from);
  rt.on_pe(0, [&] { ckpt.checkpoint(Callback::ignore()); });
  machine.run();
  machine.resume();
  reconfigure(to);

  bool refused = false, recovered = false;
  rt.on_pe(0, [&] {
    try {
      ckpt.fail_and_recover(3, Callback::ignore());
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("at " + std::to_string(to) + " active PEs"), std::string::npos) << what;
      EXPECT_NE(what.find("holds " + std::to_string(from) + " PEs"), std::string::npos) << what;
      refused = true;
    }
    if (!refused) return;
    EXPECT_FALSE(ckpt.recovery_pending());
    ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
      ckpt.fail_and_recover(3, Callback::to_function([&](ReductionResult&&) {
        recovered = true;
      }));
    }));
  });
  machine.run();
  ASSERT_TRUE(refused) << "recovery from " << from << "-PE stores at " << to << " PEs";
  ASSERT_TRUE(recovered);
  EXPECT_EQ(rt.collection(arr.id()).total_elements, 32);
  int total = 0;
  for (int pe = 0; pe < 8; ++pe)
    total += static_cast<int>(rt.collection(arr.id()).local(pe).elems.size());
  EXPECT_EQ(total, 32);
}

TEST(Malleability, RecoveryAfterShrinkNeedsANewCheckpoint) {
  recover_across_reconfiguration(8, 4);
}

TEST(Malleability, RecoveryAfterExpandNeedsANewCheckpoint) {
  recover_across_reconfiguration(4, 8);
}

TEST(Malleability, InvalidTargetsRejected) {
  sim::Machine machine(sim::MachineConfig{4, {}, 4});
  Runtime rt(machine);
  ccs::Server server(rt);
  EXPECT_THROW(server.request_shrink(0, Callback::ignore()), std::invalid_argument);
  EXPECT_THROW(server.request_shrink(8, Callback::ignore()), std::invalid_argument);
  EXPECT_THROW(server.request_expand(2, Callback::ignore()), std::invalid_argument);
}

}  // namespace
