// Whole-run determinism regression: two in-process executions of the same
// configuration must agree *exactly* — final virtual times, event counts,
// message statistics, and trace-derived stats.  Guards the emulator's core
// contract (DESIGN.md §1): identical seeds and configs give bit-identical
// runs, which is what the resilience harness and every figure script rely on.
//
// The two configurations replicate the smoke setups of bench/fig10 (LeanMD
// checkpoint + failure + restart) and bench/fig16 (Stencil2D under
// interference with periodic LB).

#include <gtest/gtest.h>

#include <cstdint>

#include "ft/mem_checkpoint.hpp"
#include "lb/manager.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "runtime/charm.hpp"
#include "stats/report.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using charmtest::Harness;

struct Fingerprint {
  double final_time = 0;
  double makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  // Trace-derived:
  double span = 0;
  double busy = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  double latency = 0;

  void take_trace(const trace::Tracer& tr, int npes) {
    const stats::Report r = stats::collect(tr, npes);
    span = r.makespan;
    busy = r.total_busy();
    sends = r.messages.sends;
    send_bytes = r.messages.bytes;
    latency = r.messages.total_latency;
  }
};

void expect_identical(const Fingerprint& a, const Fingerprint& b) {
  EXPECT_EQ(a.final_time, b.final_time);  // exact, not approximate
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.sends, b.sends);
  EXPECT_EQ(a.send_bytes, b.send_bytes);
  EXPECT_EQ(a.latency, b.latency);
}

// ---- fig10 smoke analog: LeanMD + checkpoint + failure + restart -------------

Fingerprint run_leanmd_ckpt() {
  const int npes = 8;
  Harness h(npes);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  leanmd::Params p;
  p.nx = p.ny = p.nz = 3;
  p.atoms_per_cell = 12;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(h.rt, p);
  ft::MemCheckpointer ckpt(h.rt);
  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(2, Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(npes - 1, Callback::to_function([&](ReductionResult&&) {
          sim.run(1, Callback::to_function([&](ReductionResult&&) { done = true; }));
        }));
      }));
    }));
  });
  h.machine.run();
  EXPECT_TRUE(done);

  Fingerprint f;
  f.final_time = h.machine.time();
  f.makespan = h.machine.max_pe_clock();
  f.events = h.machine.events_processed();
  f.msgs = h.rt.messages_sent();
  f.bytes = h.rt.bytes_sent();
  f.take_trace(tracer, npes);
  return f;
}

TEST(Determinism, LeanmdCheckpointRestartRunsAreIdentical) {
  const Fingerprint a = run_leanmd_ckpt();
  const Fingerprint b = run_leanmd_ckpt();
  expect_identical(a, b);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.final_time, 0.0);
}

// ---- fig16 smoke analog: Stencil2D + interference + periodic LB --------------

Fingerprint run_stencil_interference() {
  const int npes = 16;
  Harness h(npes, sim::NetworkParams::cloud_ethernet());
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  stencil::Params p;
  p.grid = 256;
  p.tiles_x = p.tiles_y = 8;
  p.cell_cost = 3e-9;
  stencil::Sim sim(h.rt, p);
  h.rt.lb().set_strategy(lb::make_greedy());
  h.rt.lb().set_period(10);

  bool done = false;
  h.rt.on_pe(0, [&] {
    sim.run(15, Callback::to_function([&](ReductionResult&&) {
      // Interfering VM lands on PE 5 (fig16's mechanism).
      h.machine.pe(5).set_freq(0.45);
      sim.run(25, Callback::to_function([&](ReductionResult&&) { done = true; }));
    }));
  });
  h.machine.run();
  EXPECT_TRUE(done);

  Fingerprint f;
  f.final_time = h.machine.time();
  f.makespan = h.machine.max_pe_clock();
  f.events = h.machine.events_processed();
  f.msgs = h.rt.messages_sent();
  f.bytes = h.rt.bytes_sent();
  f.take_trace(tracer, npes);
  return f;
}

TEST(Determinism, StencilInterferenceLbRunsAreIdentical) {
  const Fingerprint a = run_stencil_interference();
  const Fingerprint b = run_stencil_interference();
  expect_identical(a, b);
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.sends, 0u);
}

// Tracing itself must not perturb the simulation: with the tracer detached,
// the run lands on the same final virtual time.
TEST(Determinism, TracingDoesNotPerturbVirtualTime) {
  auto run = [](bool traced) {
    const int npes = 8;
    Harness h(npes);
    trace::Tracer tracer;
    if (traced) h.machine.set_tracer(&tracer);
    leanmd::Params p;
    p.nx = p.ny = p.nz = 3;
    p.atoms_per_cell = 8;
    leanmd::Simulation sim(h.rt, p);
    bool done = false;
    h.rt.on_pe(0, [&] {
      sim.run(3, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return h.machine.time();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
