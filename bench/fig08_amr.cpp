// Fig 8: AMR3D.  Left: strong scaling with NoLB vs DistributedLB vs ideal.
// Right: in-memory checkpoint and restart times vs PE count.

#include "bench_common.hpp"
#include "ft/mem_checkpoint.hpp"
#include "miniapps/amr/amr.hpp"

namespace {

using namespace charm;

amr::Params bench_params() {
  amr::Params p;
  p.block = 6;
  p.min_depth = 2;   // 64 initial blocks
  p.max_depth = 4;   // refinement adds hundreds around the blob
  p.cell_cost = 120e-9;
  return p;
}

double time_per_step(int npes, bool distributed_lb) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  amr::Mesh mesh(rt, bench_params());
  if (distributed_lb) {
    rt.lb().use_distributed();
    rt.lb().set_period(4);
  }
  bool done = false;
  const int chunks = bench::cap_steps(4, 2), steps = bench::cap_steps(6, 2);
  rt.on_pe(0, [&] {
    mesh.run(chunks, steps, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  m.run();
  bench::check(done, "AMR run completed (P=" + std::to_string(npes) + ")");
  return m.max_pe_clock() / (chunks * steps);
}

std::pair<double, double> ckpt_restart_times(int npes) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  amr::Mesh mesh(rt, bench_params());
  ft::MemCheckpointer ckpt(rt);
  double t_ckpt = -1, t_restart = -1;
  rt.on_pe(0, [&] {
    mesh.run(2, 4, Callback::to_function([&](ReductionResult&&) {
      const double t0 = charm::now();
      ckpt.checkpoint(Callback::to_function([&, t0](ReductionResult&&) {
        t_ckpt = charm::now() - t0;
        const double t1 = charm::now();
        ckpt.fail_and_recover(npes / 2, Callback::to_function([&, t1](ReductionResult&&) {
          t_restart = charm::now() - t1;
          rt.exit();
        }));
      }));
    }));
  });
  m.run();
  return {t_ckpt, t_restart};
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 8 (left)", "AMR3D strong scaling: NoLB vs DistributedLB vs ideal");
  bench::columns({"PEs", "NoLB_s/step", "DistLB_s/step", "ideal_s/step"});
  double base = -1;
  for (int p : bench::pe_series({8, 16, 32, 64})) {
    const double nolb = time_per_step(p, false);
    const double dist = time_per_step(p, true);
    if (base < 0) base = dist * p;
    bench::row({static_cast<double>(p), nolb, dist, base / p});
  }
  bench::note("paper shape: DistributedLB beats NoLB (40% at scale); scaling tracks ideal with");
  bench::note("decaying parallel efficiency (paper: 46% at 128K PEs)");

  bench::header("Figure 8 (right)", "AMR3D in-memory checkpoint and restart time vs PEs");
  bench::columns({"PEs", "checkpoint_ms", "restart_ms"});
  for (int p : bench::pe_series({8, 16, 32, 64})) {
    auto [c, r] = ckpt_restart_times(p);
    bench::row({static_cast<double>(p), c * 1e3, r * 1e3});
  }
  bench::note("paper shape: both fall as PEs grow (checkpoint 394ms@2K -> 29ms@32K;");
  bench::note("restart 2.24s@2K -> 470ms@32K)");
  return bench::finish();
}
