// Fig 9: LeanMD strong-scaling speedup, With LB vs No LB vs ideal (paper:
// 2.8M atoms, 1K-32K PEs on Vesta BG/Q; HybridLB improves >= 40%).

#include "bench_common.hpp"
#include "miniapps/leanmd/leanmd.hpp"

namespace {

using namespace charm;

leanmd::Params bench_params() {
  leanmd::Params p;
  p.nx = p.ny = p.nz = 6;       // 216 cells, ~3.1k computes
  p.atoms_per_cell = 28;
  p.pair_cost = 25e-9;
  p.clustering = 2.5;           // non-uniform density: the imbalance source
  p.epsilon = 1e-6;             // quasi-static: imbalance persists
  return p;
}

double time_per_step(int npes, bool with_lb) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Simulation sim(rt, bench_params());
  if (with_lb) {
    rt.lb().set_strategy(lb::make_refine(1.05));
    rt.lb().set_period(4);
  }
  const int steps = bench::cap_steps(10, 3);
  bool done = false;
  rt.on_pe(0, [&] {
    sim.run(steps, Callback::to_function([&](ReductionResult&&) {
      done = true;
      rt.exit();
    }));
  });
  m.run();
  bench::check(done, "LeanMD run completed (P=" + std::to_string(npes) + ")");
  return m.max_pe_clock() / steps;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 9", "LeanMD speedup: With LB vs No LB vs ideal");
  bench::columns({"PEs", "NoLB_ms/step", "LB_ms/step", "speedup_NoLB", "speedup_LB", "ideal"});
  const int base_p = 4;
  const double t0_nolb = time_per_step(base_p, false);
  const double t0_lb = time_per_step(base_p, true);
  for (int p : bench::pe_series({4, 8, 16, 32, 64})) {
    const double nolb = p == base_p ? t0_nolb : time_per_step(p, false);
    const double lb = p == base_p ? t0_lb : time_per_step(p, true);
    bench::row({static_cast<double>(p), nolb * 1e3, lb * 1e3, base_p * t0_nolb / nolb,
                base_p * t0_lb / lb, static_cast<double>(p)});
  }
  bench::note("paper shape: LB curve tracks ideal much closer; >= 40% gain over NoLB at scale");
  return bench::finish();
}
