// Deterministic fault injection + resilience harness.
//
// A small bulk-synchronous app (broadcast work + neighbor exchange + QD step
// boundaries) runs under ft::ResilientDriver with periodic double in-memory
// checkpoints while sim::FaultInjector kills PEs mid-run.  The headline
// assertions:
//   * every randomized failure schedule recovers and finishes,
//   * post-recovery physics is bit-identical to the failure-free run,
//   * the same seed reproduces byte-identical traced failure and restore
//     facts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/mem_checkpoint.hpp"
#include "ft/resilient_driver.hpp"
#include "runtime/charm.hpp"
#include "sim/fault_injector.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

struct StepMsg {
  int step = 0;
  void pup(pup::Er& p) { p | step; }
};

struct ShareMsg {
  double v = 0;
  void pup(pup::Er& p) { p | v; }
};

/// One particle-bundle element: deterministic arithmetic "physics" plus a
/// right-neighbor exchange, so injected failures lose both broadcast and
/// point-to-point messages.
class Atom : public charm::ArrayElement<Atom, std::int32_t> {
 public:
  static int population;  // set by each test before seeding

  std::vector<double> data;
  int steps = 0;

  void init() {
    data.assign(32, 1.0 + 0.25 * static_cast<double>(index()));
  }

  void work(const StepMsg& m) {
    const double ix = static_cast<double>(index());
    for (std::size_t k = 0; k < data.size(); ++k)
      data[k] = data[k] * 1.0000001 + 1e-3 * (ix + 1.0) +
                1e-4 * static_cast<double>(m.step) + 1e-6 * static_cast<double>(k);
    ++steps;
    charm::charge(150e-6);
    ArrayProxy<Atom> peers(collection_id());
    peers[(index() + 1) % population].send<&Atom::share>(ShareMsg{data[0]});
  }

  void share(const ShareMsg& m) {
    data[1] += 1e-6 * m.v;
    charm::charge(2e-6);
  }

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | data;
    p | steps;
  }
};

int Atom::population = 0;

constexpr int kPes = 6;
constexpr int kElems = 12;
constexpr int kSteps = 10;
constexpr int kCkptPeriod = 3;

/// Checkpointer tuned for tests: short detection so sweeps stay fast.
ft::MemCkptParams test_ckpt_params() {
  ft::MemCkptParams p;
  p.detect_delay = 1e-3;
  return p;
}

struct RunResult {
  bool finished = false;
  int failures = 0;
  int recoveries = 0;
  int replayed_steps = 0;
  int ckpt_aborted = 0;
  std::uint64_t dropped = 0;
  /// The traced kFailure and kRestore facts, one line each, in trace order.
  std::string facts;
  std::vector<double> physics;  ///< per-element data + step counters
  double end_time = 0;
};

/// One line per traced failure or restore fact: name, PE, span and aux
/// (the victim of a failure, the victim count of a restore), times in %.17g.
std::string failure_restore_facts(const trace::Tracer& tracer) {
  std::string out;
  char line[160];
  for (const trace::Event& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase ||
        (e.phase != sim::Phase::kFailure && e.phase != sim::Phase::kRestore))
      continue;
    std::snprintf(line, sizeof(line), "%s pe=%d t=[%.17g,%.17g] aux=%d\n",
                  sim::phase_name(e.phase), e.pe, e.begin, e.end, e.a);
    out += line;
  }
  return out;
}

/// Number of non-overlapping occurrences of `needle` in `hay`.
int count_of(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size()))
    ++n;
  return n;
}

/// Runs the mini-app to completion, optionally under an injected failure
/// schedule, and fingerprints the surviving element state.
RunResult run_mini(const sim::FaultConfig* fcfg,
                   trace::Tracer* tracer = nullptr,
                   ft::MemCkptParams mp = test_ckpt_params()) {
  Harness h(kPes);
  trace::Tracer own;
  if (tracer == nullptr) tracer = &own;
  h.machine.set_tracer(tracer);
  Atom::population = kElems;
  auto arr = ArrayProxy<Atom>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % kPes);

  sim::FaultInjector fi;
  if (fcfg != nullptr) {
    fi.configure(*fcfg);
    h.machine.set_fault_injector(&fi);
  }
  ft::MemCheckpointer ckpt(h.rt, mp);
  if (fcfg != nullptr) ckpt.attach_injector(fi);

  ft::ResilientDriver drv(
      h.rt, ckpt,
      [&](int step, std::function<void()> boundary) {
        arr.broadcast<&Atom::work>(StepMsg{step});
        h.rt.start_quiescence(Callback::to_function(
            [boundary = std::move(boundary)](ReductionResult&&) { boundary(); }));
      },
      kSteps, kCkptPeriod);

  RunResult r;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Atom::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      drv.start(Callback::to_function([&](ReductionResult&&) {
        r.finished = true;
        // The application has exited; no further failures are injected.
        h.machine.set_fault_injector(nullptr);
      }));
    }));
  });
  h.machine.run();

  r.failures = fi.failures_injected();
  r.recoveries = ckpt.recoveries_completed();
  r.replayed_steps = drv.steps_replayed();
  r.ckpt_aborted = ckpt.checkpoints_aborted();
  r.dropped = h.machine.messages_dropped();
  r.facts = failure_restore_facts(*tracer);
  r.end_time = h.machine.time();
  for (int i = 0; i < kElems; ++i) {
    int pe = -1;
    Atom* a = h.find<Atom>(arr.id(), i, &pe);
    if (a == nullptr) continue;  // caller asserts on fingerprint length
    r.physics.insert(r.physics.end(), a->data.begin(), a->data.end());
    r.physics.push_back(static_cast<double>(a->steps));
  }
  return r;
}

const RunResult& baseline() {
  static const RunResult r = run_mini(nullptr);
  return r;
}

// ---- schedule mechanics ------------------------------------------------------

TEST(FixedSchedule, FiresAtExactVirtualTime) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.fixed = {{2e-3, 2}};
  RunResult r = run_mini(&cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.failures, 1);
  // The injection lands between handler executions at the exact configured
  // virtual timestamp — no quantization to event times.
  EXPECT_NE(r.facts.find("failure pe=2 t=[0.002,0.002] aux=2\n"), std::string::npos)
      << r.facts;
  EXPECT_EQ(r.recoveries, 1);
  EXPECT_EQ(r.physics, baseline().physics);
}

TEST(FixedSchedule, QuarantineDropsQueuedAndInflightMessages) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.fixed = {{1.5e-3, 1}};
  RunResult r = run_mini(&cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.failures, 1);
  // Something must have been addressed at the dead PE during the detection
  // window (QD waves, step traffic) and been dropped, not executed.
  EXPECT_GT(r.dropped, 0u);
  EXPECT_EQ(r.physics, baseline().physics);
}

TEST(FixedSchedule, RandomVictimIsSeedDeterministic) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.fixed = {{1.5e-3, -1}};  // -1: seeded random victim
  cfg.seed = 99;
  RunResult a = run_mini(&cfg);
  RunResult b = run_mini(&cfg);
  ASSERT_EQ(a.failures, 1);
  EXPECT_EQ(a.facts, b.facts);
}

// ---- multi-failure behaviour -------------------------------------------------

TEST(MultiFailure, BurstCoalescesIntoOneRecovery) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.max_failures = 2;
  // Two failures inside one detection window; victims are not buddies.
  cfg.fixed = {{1.5e-3, 1}, {1.6e-3, 3}};
  RunResult r = run_mini(&cfg);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.failures, 2);
  EXPECT_EQ(r.recoveries, 1) << r.facts;
  // Both victims fail, then one restore revives the two of them.
  EXPECT_EQ(count_of(r.facts, "failure pe=1 "), 1) << r.facts;
  EXPECT_EQ(count_of(r.facts, "failure pe=3 "), 1) << r.facts;
  EXPECT_EQ(count_of(r.facts, "restore "), 1) << r.facts;
  EXPECT_NE(r.facts.find("] aux=2\n"), std::string::npos) << r.facts;
  EXPECT_GT(r.facts.rfind("restore "), r.facts.rfind("failure ")) << r.facts;
  EXPECT_EQ(r.physics, baseline().physics);
}

TEST(MultiFailure, SequentialBuddyVictimRecoversViaReReplication) {
  // PE 3 is the buddy holding PE 2's checkpoint.  Failing 2, recovering, and
  // then failing 3 must work: the recovery re-replicates the copies that died
  // with PE 2 (and the ones PE 3 will lose are re-hosted after its recovery).
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.max_failures = 2;
  cfg.fixed = {{1.5e-3, 2}, {4e-3, 3}};  // second failure well after recovery
  RunResult r = run_mini(&cfg);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.failures, 2);
  EXPECT_EQ(r.recoveries, 2) << r.facts;
  EXPECT_EQ(r.physics, baseline().physics);
}

TEST(MultiFailure, AdjacentVictimsInOneBurstAreUnrecoverable) {
  // PE 3 holds the only surviving copy of PE 2's state; losing both before
  // recovery completes defeats double checkpointing.  This must surface as a
  // clean error, not a hang or UB.
  Harness h(kPes);
  Atom::population = kElems;
  auto arr = ArrayProxy<Atom>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % kPes);
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.max_failures = 2;
  cfg.fixed = {{1e-3, 2}, {1.05e-3, 3}};
  sim::FaultInjector fi(cfg);
  h.machine.set_fault_injector(&fi);
  ft::MemCheckpointer ckpt(h.rt, test_ckpt_params());
  ckpt.attach_injector(fi);
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Atom::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        // Keep the machine busy past both failure times.
        for (int s = 1; s <= kSteps; ++s) arr.broadcast<&Atom::work>(StepMsg{s});
      }));
    }));
  });
  EXPECT_THROW(h.machine.run(), std::runtime_error);
  EXPECT_EQ(fi.failures_injected(), 2);
}

TEST(MultiFailure, FailureWithZeroCheckpointsIsCleanError) {
  Harness h(kPes);
  Atom::population = kElems;
  auto arr = ArrayProxy<Atom>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % kPes);
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.fixed = {{1e-4, 1}};
  sim::FaultInjector fi(cfg);
  h.machine.set_fault_injector(&fi);
  ft::MemCheckpointer ckpt(h.rt, test_ckpt_params());
  ckpt.attach_injector(fi);
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Atom::init>();
    for (int s = 1; s <= kSteps; ++s) arr.broadcast<&Atom::work>(StepMsg{s});
  });
  EXPECT_THROW(h.machine.run(), std::logic_error);
}

TEST(MultiFailure, CheckpointDuringPendingRecoveryThrows) {
  Harness h(kPes);
  Atom::population = kElems;
  auto arr = ArrayProxy<Atom>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i % kPes);
  ft::MemCheckpointer ckpt(h.rt, test_ckpt_params());
  bool checked = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Atom::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(1, Callback::ignore());
        EXPECT_TRUE(ckpt.recovery_pending());
        EXPECT_THROW(ckpt.checkpoint(Callback::ignore()), std::logic_error);
        checked = true;
      }));
    }));
  });
  h.machine.run();
  EXPECT_TRUE(checked);
}

// ---- nemesis mode ------------------------------------------------------------

TEST(Nemesis, TargetsBusiestPe) {
  // Skew the element placement so PE 4 does most of the work; the nemesis
  // victim choice (most accumulated busy time, then longest ready queue) must
  // pick it deterministically.
  Harness h(kPes);
  Atom::population = kElems;
  auto arr = ArrayProxy<Atom>::create(h.rt);
  for (int i = 0; i < kElems; ++i) arr.seed(i, i < 7 ? 4 : i % 4);
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kNemesis;
  cfg.mtbf = 1e-3;
  cfg.start_after = 1e-3;
  sim::FaultInjector fi(cfg);
  h.machine.set_fault_injector(&fi);
  ft::MemCheckpointer ckpt(h.rt, test_ckpt_params());
  ckpt.attach_injector(fi);
  bool done = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Atom::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        for (int s = 1; s <= 3 * kSteps; ++s) arr.broadcast<&Atom::work>(StepMsg{s});
        h.rt.start_quiescence(
            Callback::to_function([&](ReductionResult&&) { done = true; }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_EQ(fi.failures_injected(), 1);
  EXPECT_EQ(fi.log()[0].pe, 4) << fi.format_log();
  EXPECT_TRUE(done);
}

TEST(Nemesis, StrikesMidCheckpointAndAbortsIt) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kNemesis;
  cfg.mtbf = 0;  // no background stream: hooks only
  cfg.strike_mid_checkpoint = true;
  cfg.strike_delay = 5e-6;
  cfg.start_after = 5e-4;  // skip the initial checkpoint at t~0
  RunResult r = run_mini(&cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.failures, 1);
  // The staged checkpoint was discarded and the previous commit restored.
  EXPECT_EQ(r.ckpt_aborted, 1);
  EXPECT_EQ(r.recoveries, 1);
  EXPECT_GT(r.replayed_steps, 0);
  EXPECT_EQ(r.physics, baseline().physics);
}

TEST(Nemesis, LbHookArmsDelayedStrike) {
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kNemesis;
  cfg.strike_mid_lb = true;
  cfg.strike_delay = 2e-6;
  sim::FaultInjector fi(cfg);
  EXPECT_FALSE(fi.armed());
  fi.notify_lb_begin(1e-3);
  ASSERT_TRUE(fi.armed());
  EXPECT_DOUBLE_EQ(fi.next_time(), 1e-3 + 2e-6);
  // The checkpoint hook must not arm when only the LB strike is enabled.
  sim::FaultInjector fi2(cfg);
  fi2.notify_checkpoint_begin(1e-3);
  EXPECT_FALSE(fi2.armed());
}

// ---- trace integration -------------------------------------------------------

TEST(FaultTrace, FailureAndRestorePhaseSpansEmitted) {
  trace::Tracer tracer;
  sim::FaultConfig cfg;
  cfg.mode = sim::FaultMode::kFixed;
  cfg.fixed = {{1.5e-3, 2}};
  RunResult r = run_mini(&cfg, &tracer);
  ASSERT_TRUE(r.finished);
  int failure_spans = 0, restore_spans = 0, ckpt_spans = 0;
  for (const trace::Event& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase) continue;
    if (e.phase == sim::Phase::kFailure) {
      ++failure_spans;
      EXPECT_EQ(e.pe, 2);
      EXPECT_DOUBLE_EQ(e.begin, 1.5e-3);
    }
    if (e.phase == sim::Phase::kRestore) ++restore_spans;
    if (e.phase == sim::Phase::kCheckpoint) ++ckpt_spans;
  }
  EXPECT_EQ(failure_spans, 1);
  EXPECT_EQ(restore_spans, 1);
  EXPECT_GT(ckpt_spans, 0);
}

// ---- the resilience sweep ----------------------------------------------------

// Randomized MTBF schedules over many seeds.  Every run must recover from
// every injected failure, finish all steps, and end bit-identical to the
// failure-free run; the same seed must reproduce the identical failure and
// recovery traces byte for byte.
TEST(ResilienceSweep, RandomizedFailureSchedulesRecoverBitIdentical) {
  constexpr int kSeeds = 24;
  const std::vector<double>& clean = baseline().physics;
  ASSERT_EQ(clean.size(), static_cast<std::size_t>(kElems * 33));

  int total_failures = 0;
  int runs_with_failures = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sim::FaultConfig cfg;
    cfg.mode = sim::FaultMode::kMtbf;
    cfg.mtbf = 1.2e-3;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.max_failures = 3;
    cfg.start_after = 1e-3;  // the initial checkpoint commits well before this
    cfg.min_gap = 5e-3;      // recovery + replay headroom between failures
    RunResult a = run_mini(&cfg);
    ASSERT_TRUE(a.finished) << "seed " << seed << " did not complete";
    ASSERT_EQ(a.physics, clean) << "seed " << seed << " diverged after recovery";

    // Same seed, fresh machine: the entire failure timeline must replay
    // byte-identically.
    RunResult b = run_mini(&cfg);
    ASSERT_TRUE(b.finished);
    EXPECT_EQ(a.facts, b.facts) << "seed " << seed;
    EXPECT_EQ(count_of(a.facts, "failure "), a.failures) << "seed " << seed;
    EXPECT_EQ(count_of(a.facts, "restore "), a.recoveries) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;

    total_failures += a.failures;
    if (a.failures > 0) {
      ++runs_with_failures;
      EXPECT_GT(a.recoveries, 0) << "seed " << seed;
    }
  }
  // The sweep must actually exercise the failure path, not vacuously pass.
  EXPECT_GE(total_failures, (2 * kSeeds) / 3) << "MTBF too long for the run length?";
  EXPECT_GE(runs_with_failures, kSeeds / 2);
}

// Nemesis sweep: adversarial timing (mid-checkpoint strikes) across seeds.
TEST(ResilienceSweep, NemesisMidCheckpointSchedulesRecover) {
  const std::vector<double>& clean = baseline().physics;
  for (int seed = 1; seed <= 6; ++seed) {
    sim::FaultConfig cfg;
    cfg.mode = sim::FaultMode::kNemesis;
    cfg.mtbf = 0;
    cfg.strike_mid_checkpoint = true;
    cfg.strike_delay = 1e-6 * static_cast<double>(seed);  // vary the timing
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.start_after = 5e-4;
    cfg.max_failures = 2;
    cfg.min_gap = 5e-3;
    RunResult r = run_mini(&cfg);
    ASSERT_TRUE(r.finished) << "seed " << seed;
    ASSERT_GE(r.failures, 1) << "seed " << seed;
    ASSERT_EQ(r.physics, clean) << "seed " << seed;
  }
}

}  // namespace
