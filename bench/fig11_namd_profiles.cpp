// Fig 11: NAMD 100M-atom strong scaling on Titan XK7 vs Jaguar XT5.
//
// Our stand-in: the LeanMD mini-app (the paper itself frames LeanMD as the
// non-bonded kernel of NAMD) on two machine profiles — a Gemini-class
// interconnect (XK7) vs a SeaStar-class one (XT5).  The expected shape:
// both scale; the newer interconnect is faster and scales further before the
// communication floor bends the curve.

#include "bench_common.hpp"
#include "miniapps/leanmd/leanmd.hpp"

namespace {

using namespace charm;

double time_per_step(int npes, const sim::NetworkParams& net) {
  sim::Machine m(bench::machine_config(npes, net));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Params p;
  p.nx = p.ny = p.nz = bench::smoke() ? 4 : 8;  // 512 cells, ~7.4k computes ("100M-atom" analogue)
  p.atoms_per_cell = 24;
  p.pair_cost = 20e-9;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);
  rt.lb().set_strategy(lb::make_refine(1.08));
  rt.lb().set_period(5);
  const int steps = bench::cap_steps(6, 3);
  bool done = false;
  rt.on_pe(0, [&] {
    sim.run(steps, Callback::to_function([&](ReductionResult&&) {
      done = true;
      rt.exit();
    }));
  });
  m.run();
  bench::check(done, "run completed (P=" + std::to_string(npes) + ")");
  return m.max_pe_clock() / steps;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 11", "NAMD-style strong scaling on two machine profiles");
  bench::columns({"PEs", "XK7-like_ms", "XT5-like_ms"});
  int profile_pes = 0;
  for (int p : bench::pe_series({16, 32, 64, 128, 256})) {
    bench::row({static_cast<double>(p), time_per_step(p, sim::NetworkParams::cray_gemini()) * 1e3,
                time_per_step(p, sim::NetworkParams::cray_seastar()) * 1e3});
    profile_pes = p;
  }
  bench::note("paper shape: both machines scale to the full system; the XK7 curve sits below");
  bench::note("the XT5 curve and keeps scaling where XT5's communication floor flattens it");
  // Fig 11's other panel is the Projections time profile of one run: the
  // last traced machine (XT5-like at the largest PE count) binned into
  // busy / overhead / idle utilization fractions.
  bench::print_time_profile(profile_pes, 20);
  return bench::finish();
}
