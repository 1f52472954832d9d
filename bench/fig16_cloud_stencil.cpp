// Fig 16: Stencil2D in the cloud — an interfering VM lands on one node after
// iteration 100; heterogeneity-aware load balancing every 20 steps recovers
// the iteration time, while the NoLB run stays degraded.
//
// Interference is modeled as a frequency-scale drop on one PE (the same
// mechanism Distem used on Grid'5000; DESIGN.md §1).  We print the
// iteration-time trace for both runs.

#include "bench_common.hpp"
#include "miniapps/stencil/stencil.hpp"

namespace {

using namespace charm;

std::vector<double> iteration_times(bool with_lb) {
  sim::Machine m(bench::machine_config(32, sim::NetworkParams::cloud_ethernet()));
  bench::attach_trace(m);
  Runtime rt(m);
  stencil::Params p;
  p.grid = 1024;
  p.tiles_x = p.tiles_y = 16;  // 8 tiles per VM
  p.cell_cost = 3e-9;
  stencil::Sim sim(rt, p);
  if (with_lb) {
    rt.lb().set_strategy(lb::make_greedy());
    rt.lb().set_period(20);  // LB every 20 steps, as in the paper
  }

  const int total_iters = bench::cap_steps(300, 60);
  const int interference_at = bench::cap_steps(100, 20);
  bool done = false;
  rt.on_pe(0, [&] {
    sim.run(interference_at, Callback::to_function([&](ReductionResult&&) {
      // Interfering VM enters the node hosting PE 5: effective speed 0.45x.
      m.pe(5).set_freq(0.45);
      sim.run(total_iters - interference_at,
              Callback::to_function([&](ReductionResult&&) { done = true; }));
    }));
  });
  m.run();
  bench::check(done, with_lb ? "run with LB completed" : "run without LB completed");

  std::vector<double> times;
  double prev = 0;
  for (const auto& r : rt.lb().history()) {
    times.push_back(r.completed_at - prev);
    prev = r.completed_at;
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 16", "Stencil2D iteration time under interference (starts at iter 100)");
  auto nolb = iteration_times(false);
  auto lb = iteration_times(true);
  bench::columns({"iteration", "NoLB_ms", "LB_ms"});
  const std::size_t n = std::min(nolb.size(), lb.size());
  for (std::size_t i = 0; i < n; i += 10) {
    bench::row({static_cast<double>(i + 1), nolb[i] * 1e3, lb[i] * 1e3});
  }
  // Post-interference averages (excluding the LB-spike iterations).
  auto avg_tail = [&](const std::vector<double>& v) {
    double s = 0;
    int c = 0;
    for (std::size_t i = bench::smoke() ? 30 : 140; i < v.size(); ++i) {
      s += v[i];
      ++c;
    }
    return c ? s / c : 0.0;
  };
  std::printf("   post-interference steady iteration time: NoLB %.3f ms, LB %.3f ms\n",
              avg_tail(nolb) * 1e3, avg_tail(lb) * 1e3);
  bench::note("paper shape: both traces jump at iter 100; the LB trace recovers (with periodic LB spikes)");
  return bench::finish();
}
