// Machine emulator unit tests: event ordering, charging, priorities,
// frequency scaling, network delays, determinism, and the lifetime of a
// message's event-arena slot.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <numeric>
#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "sim/machine.hpp"

namespace {

sim::MachineConfig cfg(int npes) {
  sim::MachineConfig c;
  c.npes = npes;
  return c;
}

TEST(Machine, PostAndRunExecutesHandlers) {
  sim::Machine m(cfg(2));
  int hits = 0;
  m.post(0, 0.0, [&] { ++hits; });
  m.post(1, 1.0, [&] { ++hits; });
  m.run();
  EXPECT_EQ(hits, 2);
  EXPECT_GE(m.time(), 1.0);
}

TEST(Machine, ChargeAdvancesPeClock) {
  sim::Machine m(cfg(1));
  m.post(0, 0.0, [&] { m.charge(1e-3); });
  m.run();
  EXPECT_GE(m.pe(0).clock(), 1e-3);
  EXPECT_GE(m.pe(0).busy_time(), 1e-3);
}

TEST(Machine, FrequencyScalesCharges) {
  sim::Machine a(cfg(1)), b(cfg(1));
  b.pe(0).set_freq(0.5);
  for (sim::Machine* m : {&a, &b}) {
    m->post(0, 0.0, [m] { m->charge(1e-3); });
    m->run();
  }
  // Half frequency => twice the virtual time for the same work.
  EXPECT_NEAR(b.pe(0).busy_time() - a.pe(0).busy_time(), a.pe(0).busy_time(), 1e-9);
}

TEST(Machine, BusyPeSerializesWork) {
  sim::Machine m(cfg(1));
  std::vector<double> starts;
  for (int i = 0; i < 3; ++i) {
    m.post(0, 0.0, [&] {
      starts.push_back(m.now());
      m.charge(1e-3);
    });
  }
  m.run();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_GE(starts[1], starts[0] + 1e-3);
  EXPECT_GE(starts[2], starts[1] + 1e-3);
}

TEST(Machine, PriorityOrdersReadyQueue) {
  sim::Machine m(cfg(1));
  std::vector<int> order;
  // First handler occupies the PE; the next two arrive while busy and must
  // run in priority order regardless of arrival order.
  m.post(0, 0.0, [&] { m.charge(1e-3); });
  m.post(0, 1e-6, [&] { order.push_back(1); }, /*priority=*/5);
  m.post(0, 2e-6, [&] { order.push_back(2); }, /*priority=*/-5);
  m.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // higher priority (lower value) first
  EXPECT_EQ(order[1], 1);
}

TEST(Machine, SendDelaysScaleWithSizeAndDistance) {
  sim::MachineConfig c = cfg(64);
  sim::Machine m(c);
  double t_small = 0, t_big = 0;
  m.post(0, 0.0, [&] {
    m.send(63, 64, 0, [&] { t_small = m.now(); });
    m.send(63, 1 << 20, 0, [&] { t_big = m.now(); });
  });
  m.run();
  EXPECT_GT(t_small, 0);
  const double payload_time = (1 << 20) / c.net.bandwidth;
  EXPECT_GE(t_big, t_small + payload_time * 0.5);
}

TEST(Machine, HopsAreReportedAndChargedExactlyWhenPerHopIsPositive) {
  // One 64-byte send from PE 0 to PE 63 of a 4x4x4 torus.  A network with
  // per_hop == 0 (the cloud preset) has no torus: no hop is reported and
  // the transit is latency + bytes/bandwidth alone.
  struct Send {
    int hops = -1;
    int torus_hops = 0;
    double transit = 0;
  };
  struct Recorder : sim::Observer {
    Send* out = nullptr;
    void on_send(int, int, std::size_t, int hops, sim::Time depart, sim::Time at) override {
      out->hops = hops;
      out->transit = at - depart;
    }
  };
  const auto send_0_to_63 = [](double per_hop) {
    Send out;
    Recorder rec;
    rec.out = &out;
    sim::MachineConfig c = cfg(64);
    c.net.per_hop = per_hop;
    sim::Machine m(c);
    m.attach(rec);
    m.post(0, 0.0, [&] { m.send(63, 64, 0, [] {}); });
    m.run();
    out.torus_hops = m.topology().hops(0, 63);
    return out;
  };
  const Send none = send_0_to_63(0);
  const Send torus = send_0_to_63(40e-9);
  ASSERT_GT(torus.torus_hops, 0);
  EXPECT_EQ(none.hops, 0);
  EXPECT_EQ(torus.hops, torus.torus_hops);
  const sim::NetworkParams n;
  EXPECT_DOUBLE_EQ(none.transit, n.latency + 64 / n.bandwidth);
  EXPECT_DOUBLE_EQ(torus.transit - none.transit, 40e-9 * torus.torus_hops);
}

TEST(Machine, SelfSendIsCheap) {
  sim::Machine m(cfg(4));
  double t_self = 0, t_remote = 0;
  m.post(0, 0.0, [&] {
    m.send(0, 64, 0, [&] { t_self = m.now(); });
    m.send(3, 64, 0, [&] { t_remote = m.now(); });
  });
  m.run();
  EXPECT_LT(t_self, t_remote);
}

TEST(Machine, StopHaltsProcessing) {
  sim::Machine m(cfg(1));
  int hits = 0;
  m.post(0, 0.0, [&] {
    ++hits;
    m.stop();
  });
  m.post(0, 1.0, [&] { ++hits; });
  m.run();
  EXPECT_EQ(hits, 1);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Machine m(cfg(8));
    double final_t = 0;
    for (int i = 0; i < 8; ++i) {
      m.post(i, 0.0, [&m, i] {
        m.charge(1e-6 * (i + 1));
        m.send((i + 3) % 8, 128, 0, [&m] { m.charge(2e-6); });
      });
    }
    m.run();
    final_t = m.max_pe_clock();
    return final_t;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Machine, ResumeAfterStopContinues) {
  sim::Machine m(cfg(1));
  int hits = 0;
  m.post(0, 0.0, [&] {
    ++hits;
    m.stop();
  });
  m.post(0, 1.0, [&] { ++hits; });
  m.run();
  EXPECT_EQ(hits, 1);
  m.resume();
  m.run();
  EXPECT_EQ(hits, 2);
}

TEST(Machine, HandlerRunsInPlaceAcrossArenaGrowth) {
  // A handler runs from its own event-arena slot.  Sending more than three
  // arena chunks' worth of messages (256 events each) from inside it
  // allocates new chunks; its inline captured state must be intact and
  // writable afterwards.  Under ASan an arena that moved its events on
  // growth would fail here.
  sim::Machine m(cfg(2));
  constexpr int kSends = 3 * 256 + 64;
  int delivered = 0;
  std::int64_t result = 0;
  std::size_t arena_grew = 0;
  m.post(0, 0.0,
         [&m, &delivered, &result, &arena_grew,
          state = std::array<std::int32_t, 8>{1, 2, 3, 4, 5, 6, 7, 8}]() mutable {
           const std::size_t before = m.event_queue_bytes();
           for (int i = 0; i < kSends; ++i)
             m.send(1, 8, 0, [&delivered] { ++delivered; });
           arena_grew = m.event_queue_bytes() - before;
           for (std::int32_t& x : state) x *= 10;
           result = std::accumulate(state.begin(), state.end(), std::int64_t{0});
         });
  m.run();
  EXPECT_GE(arena_grew, 3 * 256 * sizeof(sim::Event))
      << "the sends must have grown the arena by three chunks";
  EXPECT_EQ(result, 360);
  EXPECT_EQ(delivered, kSends);
}

/// Queues `n` default-priority messages on PE 1 behind a handler that keeps
/// the PE busy, steps until all `n` wait in PE 1's ready queue, and returns
/// how much pe_state_bytes() grew meanwhile.
std::size_t queue_burst(sim::Machine& m, int n, int& runs) {
  const std::size_t before = m.pe_state_bytes();
  bool busy = false;
  m.post(1, m.time(), [&m, &busy] {
    busy = true;
    m.charge(1.0);
  });
  for (int i = 0; i < n; ++i) m.post(1, m.time(), [&runs] { ++runs; });
  while (!busy) m.step();
  EXPECT_EQ(m.pe(1).queue_length(), static_cast<std::size_t>(n));
  return m.pe_state_bytes() - before;
}

TEST(Machine, ArenaSlotsAreRecycledOnEveryExitPath) {
  // A queued message leaves its arena slot either by running or by being
  // disposed in quarantine when its PE fails.  On both paths the slot must
  // return to the free list: a second identical burst then fits in the
  // arena the first one left behind.
  enum class Exit { kExecute, kDrop };
  constexpr int kBurst = 300;  // more than one 256-event arena chunk
  for (const Exit exit : {Exit::kExecute, Exit::kDrop}) {
    SCOPED_TRACE(static_cast<int>(exit));
    sim::Machine m(cfg(4));
    // Touch every PE first so page allocation stays out of the measurement.
    for (int pe = 0; pe < 4; ++pe) m.post(pe, 0.0, [] {});
    m.run();

    int runs = 0;
    std::size_t arena = 0;
    for (int burst = 0; burst < 2; ++burst) {
      // The ready queue stores a 4-byte slot id per default-priority
      // message, rounded up to the ring's power-of-two capacity.
      EXPECT_LE(queue_burst(m, kBurst, runs),
                sizeof(sim::EventQueue::SlotId) *
                    std::bit_ceil(static_cast<std::size_t>(kBurst) + 1));
      if (exit != Exit::kExecute) m.fail_pe(1);
      m.run();
      m.revive_pe(1);
      if (burst == 0) {
        arena = m.event_queue_bytes();
      } else {
        EXPECT_EQ(m.event_queue_bytes(), arena)
            << "the second burst must reuse the first burst's slots";
      }
    }
    EXPECT_EQ(runs, 2 * kBurst) << "every handler runs exactly once";
    EXPECT_EQ(m.messages_dropped(), exit == Exit::kDrop ? 2u * kBurst : 0u);
    EXPECT_EQ(m.pending_events(), 0u);
  }
}

// ---- values the event order cannot hold ------------------------------------
//
// Both event heaps rely on (time, seq) being a strict total order, which a
// NaN time breaks and an infinite one makes meaningless; every entry point
// that lets such a value into a clock or an event time refuses it.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Machine, ChargeRefusesNonFiniteOrNegativeWork) {
  for (const double bad : {kNaN, kInf, -kInf, -1e-9}) {
    SCOPED_TRACE(bad);
    sim::Machine m(cfg(1));
    bool threw = false;
    m.post(0, 0.0, [&] {
      try {
        m.charge(bad);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      m.charge(1e-3);
    });
    m.run();
    EXPECT_TRUE(threw);
    EXPECT_DOUBLE_EQ(m.pe(0).clock(), 1e-3 + m.network().params().alpha_recv)
        << "a refused charge leaves the clock as it was";
  }
}

TEST(Machine, PostRefusesNonFiniteTimes) {
  sim::Machine m(cfg(2));
  for (const double bad : {kNaN, kInf, -kInf})
    EXPECT_THROW(m.post(1, bad, [] {}), std::invalid_argument) << bad;
  EXPECT_EQ(m.pending_events(), 0u);
  // The finite posts of a mixed batch run in time order.
  std::vector<double> order;
  for (const double t : {3.0, 1.0, 2.0, 0.5, 4.0, 0.25})
    m.post(0, t, [&order, &m] { order.push_back(m.time()); });
  m.run();
  EXPECT_EQ(order, (std::vector<double>{0.25, 0.5, 1.0, 2.0, 3.0, 4.0}));
}

/// Expects `call` to throw std::out_of_range naming `bad` and the machine's
/// npes, leaving the event list as it was.
template <class F>
void expect_pe_refused(const sim::Machine& m, int bad, F&& call) {
  const std::size_t pending = m.pending_events();
  try {
    call();
    ADD_FAILURE() << "PE " << bad << " was accepted";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PE " + std::to_string(bad)), std::string::npos) << what;
    EXPECT_NE(what.find("npes = " + std::to_string(m.npes())), std::string::npos) << what;
  }
  EXPECT_EQ(m.pending_events(), pending) << "PE " << bad;
}

TEST(Machine, SendAndPostRefuseOutOfRangePes) {
  sim::Machine m(cfg(4));
  for (const int bad : {-1, 4}) {
    expect_pe_refused(m, bad, [&] { m.post(bad, 0.0, [] {}); });
    expect_pe_refused(m, bad, [&] { m.send(bad, 8, 0, [] {}); });
  }
  EXPECT_EQ(m.pending_events(), 0u);

  int delivered = 0;
  m.post(2, 1.0, [&] {
    for (const int bad : {-1, 4}) {
      const double elapsed = m.handler_elapsed();
      expect_pe_refused(m, bad, [&] { m.send(bad, 8, 0, [] {}); });
      expect_pe_refused(m, bad, [&] { m.post(bad, 2.0, [] {}); });
      EXPECT_EQ(m.handler_elapsed(), elapsed) << "a refused send charges nothing";
    }
    m.send(3, 8, 0, [&] { ++delivered; });
  });
  m.run();
  EXPECT_EQ(delivered, 1) << "the handler's valid send still goes out";
  EXPECT_EQ(m.events_processed(), 4u);
  EXPECT_EQ(m.pending_events(), 0u);
}

TEST(Machine, FailAndRevivePeRefuseOutOfRangePes) {
  sim::Machine m(cfg(4));
  for (const int bad : {-1, 4}) {
    expect_pe_refused(m, bad, [&] { m.fail_pe(bad); });
    expect_pe_refused(m, bad, [&] { m.revive_pe(bad); });
  }
  EXPECT_EQ(m.touched_pes(), 0u) << "a refused PE materializes nothing";
  for (int pe = 0; pe < 4; ++pe) EXPECT_FALSE(m.pe_failed(pe)) << pe;
}

TEST(Machine, DisposedHandlerSendsDepartNoEarlierThanTheFailure) {
  // A failure raised inside a handler is later than time(): the victim's
  // queued handlers are disposed at the raising handler's now(), so a send
  // one of them makes cannot arrive before the failure that disposed it.
  sim::Machine m(cfg(3));
  double arrived = -1, failed_at = -1;
  m.post(1, 0.0, [&] { m.charge(2.0); });  // PE 1 busy until t = 2, so ...
  m.post(1, 0.5, [&] {                     // ... this one waits in its queue
    m.send(2, 8, 0, [&] { arrived = m.now(); });
  });
  m.post(0, 1.0, [&] {
    m.charge(0.5);
    failed_at = m.now();
    m.fail_pe(1);
  });
  m.run();
  EXPECT_NEAR(failed_at, 1.5, 1e-6);
  EXPECT_EQ(m.messages_dropped(), 1u);
  EXPECT_GT(arrived, failed_at);
}

TEST(Machine, ManualFailureAfterReviveCountsIntoNoInjectedRecord) {
  // PE 1 is failed by the injector, revived, then failed by hand.  The
  // injector logs only its own failure; the machine counts every drop.
  sim::Machine m(cfg(3));
  sim::FaultInjector fi;
  sim::FaultConfig fc;
  fc.mode = sim::FaultMode::kFixed;
  fc.fixed = {{1.0, 1}};
  fi.configure(fc);
  m.set_fault_injector(&fi);
  m.post(0, 1.5, [&] { m.send(1, 8, 0, [] {}); });
  m.post(0, 2.0, [&] { m.revive_pe(1); });
  m.post(0, 3.0, [&] {
    m.fail_pe(1);
    m.send(1, 8, 0, [] {});
  });
  m.run();
  EXPECT_EQ(fi.format_log(), "#0 t=1 pe=1\n");
  EXPECT_EQ(m.messages_dropped(), 2u);
}

TEST(Machine, SetFreqRefusesNonPositiveOrNonFiniteScales) {
  sim::Machine m(cfg(1));
  for (const double bad : {0.0, -0.5, kNaN, kInf})
    EXPECT_THROW(m.pe(0).set_freq(bad), std::invalid_argument) << bad;
  EXPECT_EQ(m.pe(0).freq(), 1.0) << "a refused scale leaves the PE at nominal";
  m.pe(0).set_freq(0.4);
  EXPECT_EQ(m.pe(0).freq(), 0.4);
}

TEST(Machine, ConstructorRefusesUnorderableConfigs) {
  const auto with_net = [](auto edit) {
    sim::MachineConfig c = cfg(4);
    edit(c.net);
    return c;
  };
  using P = sim::NetworkParams;
  const std::vector<sim::MachineConfig> bad = {
      with_net([](P& n) { n.alpha_send = kNaN; }),
      with_net([](P& n) { n.alpha_recv = kInf; }),
      with_net([](P& n) { n.latency = -1e-6; }),
      with_net([](P& n) { n.per_hop = kNaN; }),
      with_net([](P& n) { n.bandwidth = 0; }),
      with_net([](P& n) { n.bandwidth = -1e9; }),
      with_net([](P& n) { n.bandwidth = kInf; }),
      with_net([](P& n) { n.bandwidth = kNaN; }),
      cfg(0),
      // One past what a wake-up key's 24 id bits hold; refused before the
      // PE table or the torus is built.
      cfg(static_cast<int>(sim::EventQueue::kMaxPes) + 1),
  };
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_THROW(sim::Machine{bad[i]}, std::invalid_argument) << "config " << i;
  sim::MachineConfig zero_costs = cfg(4);
  zero_costs.net.alpha_send = zero_costs.net.alpha_recv = 0;
  zero_costs.net.latency = zero_costs.net.per_hop = 0;
  EXPECT_NO_THROW(sim::Machine{zero_costs}) << "zero costs are valid";
}

}  // namespace
