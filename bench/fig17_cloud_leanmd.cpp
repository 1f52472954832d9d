// Fig 17: LeanMD in a heterogeneous cloud — one node at 0.7x effective CPU
// (Distem-style static heterogeneity): HeteroNoLB vs HeteroLB vs HomoLB vs
// ideal scaling.

#include "bench_common.hpp"
#include "miniapps/leanmd/leanmd.hpp"

namespace {

using namespace charm;

double time_per_step(int npes, bool hetero, bool with_lb) {
  sim::Machine m(bench::machine_config(npes, sim::NetworkParams::cloud_ethernet()));
  bench::attach_trace(m);
  Runtime rt(m);
  if (hetero) {
    // One "node" (4 PEs) throttled to 0.7x, as on the Graphene cluster.
    for (int pe = 0; pe < std::min(4, npes); ++pe) m.pe(pe).set_freq(0.7);
  }
  leanmd::Params p;
  p.nx = p.ny = p.nz = 6;
  p.atoms_per_cell = 24;
  p.pair_cost = 25e-9;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);
  if (with_lb) {
    // Refine preserves cell/compute locality — essential on the cloud's
    // high-latency Ethernet — while still draining the slow node (the
    // strategies are all frequency-aware).
    rt.lb().set_strategy(lb::make_refine(1.05));
    rt.lb().set_period(3);
  }
  const int steps = bench::cap_steps(9, 3);
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
  bench::header("Figure 17", "LeanMD in a heterogeneous cloud (one slow node at 0.7x)");
  bench::columns({"PEs", "HeteroNoLB_ms", "HeteroLB_ms", "HomoLB_ms", "ideal_ms"});
  double base = -1;
  for (int p : bench::pe_series({8, 16, 32})) {
    const double hetero_nolb = time_per_step(p, true, false);
    const double hetero_lb = time_per_step(p, true, true);
    const double homo_lb = time_per_step(p, false, true);
    if (base < 0) base = homo_lb * p;
    bench::row({static_cast<double>(p), hetero_nolb * 1e3, hetero_lb * 1e3, homo_lb * 1e3,
                base / p * 1e3});
  }
  bench::note("paper shape: heterogeneity-aware LB brings the slow-node runs close to the");
  bench::note("homogeneous curve; NoLB is limited by the 0.7x node");
  return bench::finish();
}
