// Fig 12: Barnes-Hut time per step vs PEs: over-decomposed with ORB LB
// ("500m"), over-decomposed without LB, and one TreePiece per PE ("500m_NO").

#include "bench_common.hpp"
#include "miniapps/barnes/barnes.hpp"

namespace {

using namespace charm;

double time_per_step(int npes, int pieces_per_dim, bool with_lb) {
  sim::Machine m(bench::machine_config(npes, sim::NetworkParams::cray_gemini()));
  bench::attach_trace(m);
  Runtime rt(m);
  barnes::Params p;
  p.pieces_per_dim = pieces_per_dim;
  p.nparticles = 20000;
  p.concentration = 0.8;  // Plummer clustering
  barnes::Simulation sim(rt, p);
  if (with_lb) {
    rt.lb().set_strategy(lb::make_orb());
    rt.lb().set_period(2);
  }
  const int steps = bench::cap_steps(4, 2);
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

int cube_side_at_least(int n) {
  int s = 1;
  while (s * s * s < n) ++s;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 12", "Barnes-Hut time/step: overdecomp+ORB LB vs no LB vs 1 piece/PE");
  bench::columns({"PEs", "LB_ms", "NoLB_ms", "OnePerPE_ms"});
  for (int p : bench::pe_series({8, 16, 32, 64})) {
    const int over = 6;  // 216 pieces: heavy over-decomposition
    const double lb = time_per_step(p, over, true);
    const double nolb = time_per_step(p, over, false);
    const double one = time_per_step(p, cube_side_at_least(p), false);
    bench::row({static_cast<double>(p), lb * 1e3, nolb * 1e3, one * 1e3});
  }
  bench::note("paper shape: over-decomposition+LB wins (~40% over one-object-per-PE);");
  bench::note("all curves fall with PEs");
  return bench::finish();
}
