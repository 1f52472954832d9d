// Jacobi 2-D with AtSync load balancing and a mid-run "interfering VM":
// demonstrates over-decomposition + migratability fixing an external slowdown
// (the Fig 16 scenario as a minimal example).

#include <cstdio>

#include "miniapps/stencil/stencil.hpp"

using namespace charm;

int main() {
  sim::MachineConfig cfg;
  cfg.npes = 8;
  sim::Machine machine(cfg);
  Runtime rt(machine);

  stencil::Params p;
  p.grid = 256;
  p.tiles_x = p.tiles_y = 8;  // 64 tiles over 8 PEs: 8x over-decomposition
  p.cell_cost = 20e-9;
  stencil::Sim sim(rt, p);

  rt.lb().set_strategy(lb::make_greedy());
  rt.lb().set_period(10);

  bool finished = false;
  std::printf("running 30 clean iterations, then an interfering VM lands on PE 2...\n");
  rt.on_pe(0, [&] {
    sim.run(30, Callback::to_function([&](ReductionResult&&) {
      machine.pe(2).set_freq(0.4);  // external interference
      sim.run(60, Callback::to_function([&](ReductionResult&& r) {
        std::printf("finished; final residual-delta %.3e\n", r.num(0));
        finished = true;
        rt.exit();
      }));
    }));
  });
  machine.run();

  // Show the iteration-time trace around the interference + LB points.
  double prev = 0;
  int iter = 0;
  std::printf("%8s %14s %6s %6s\n", "iter", "step_ms", "LB?", "migs");
  for (const auto& r : rt.lb().history()) {
    ++iter;
    const double dt = (r.completed_at - prev) * 1e3;
    prev = r.completed_at;
    if (iter % 5 == 0 || r.did_lb)
      std::printf("%8d %14.4f %6s %6d\n", iter, dt, r.did_lb ? "yes" : "", r.migrations);
  }
  std::printf("tiles per PE after balancing: ");
  for (int pe = 0; pe < 8; ++pe)
    std::printf("%zu ", rt.collection(sim.tiles().id()).local(pe).elems.size());
  std::printf("\n(PE 2 runs at 0.4x, so the balancer leaves it fewer tiles)\n");
  return finished ? 0 : 1;
}
