// Fig 5: malleable LeanMD — shrink from P to P/2, then expand back.
//
// The iteration-time trace shows: ~2x per-step time after the shrink, the
// original time after the expand, and reconfiguration spikes at both events
// (dominated by the modeled process restart/reconnect, as in the paper:
// 2.7 s shrink, 7.2 s expand at 256 cores).

#include "bench_common.hpp"
#include "malleability/malleability.hpp"
#include "miniapps/leanmd/leanmd.hpp"

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  using namespace charm;
  bench::header("Figure 5", "LeanMD shrink 32->16 then expand 16->32 (Stampede-like run)");

  sim::Machine m(bench::machine_config(32, sim::NetworkParams::cray_gemini()));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Params p;
  p.nx = p.ny = p.nz = 6;
  p.atoms_per_cell = 24;
  p.pair_cost = 25e-9;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);
  rt.lb().set_strategy(lb::make_greedy());
  ccs::Server ccs(rt);

  const int phase_steps = bench::cap_steps(25, 6);
  bool all_done = false;
  rt.on_pe(0, [&] {
    sim.run(phase_steps, Callback::to_function([&](ReductionResult&&) {
      // External CCS shrink command arrives.
      ccs.request_shrink(16, Callback::ignore());
      sim.run(phase_steps, Callback::to_function([&](ReductionResult&&) {
        ccs.request_expand(32, Callback::ignore());
        sim.run(phase_steps, Callback::to_function([&](ReductionResult&&) {
          all_done = true;
          rt.exit();
        }));
      }));
    }));
  });
  m.run();
  bench::check(all_done, "run completed");

  bench::columns({"iteration", "step_time_s", "active_PEs_phase"});
  double prev = 0;
  int i = 0;
  for (const auto& r : rt.lb().history()) {
    const double dt = r.completed_at - prev;
    prev = r.completed_at;
    ++i;
    const int phase = i <= phase_steps ? 32 : (i <= 2 * phase_steps ? 16 : 32);
    if (i % 2 == 1 || r.did_lb)
      bench::row({static_cast<double>(i), dt, static_cast<double>(phase)});
  }
  bench::note("paper shape: step time ~doubles on shrink, recovers on expand;");
  bench::note("spikes at the shrink/expand iterations are the reconfiguration (process restart) cost");
  return bench::finish();
}
