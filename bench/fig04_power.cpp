// Fig 4: temperature-aware DVFS — total execution time and max core
// temperature for Base, Naive_DVFS, LB_10s, LB_5s, MetaTemp.
//
// A tightly-coupled stencil runs a fixed iteration count.  Base never
// throttles (hot chips, no slowdown).  Naive DVFS holds the 50°C threshold
// but the frequency spread unbalances the tightly-coupled app.  DVFS + LB
// every 10 s / 5 s recovers most of the penalty; MetaTemp (MetaLB-triggered
// rebalancing) does best, as in the paper.

#include <iterator>
#include <string>

#include "bench_common.hpp"
#include "lb/meta.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "power/power_manager.hpp"

namespace {

using namespace charm;

struct Outcome {
  double exec_s = 0;
  double max_temp = 0;
};

Outcome run_policy(power::Policy policy, double lb_period, bool meta) {
  sim::Machine m(bench::machine_config(16, sim::NetworkParams::bluegene_q()));
  bench::attach_trace(m);
  Runtime rt(m);
  stencil::Params sp;
  sp.grid = 512;
  sp.tiles_x = sp.tiles_y = 16;
  sp.cell_cost = 2e-6;  // hot, compute-bound tiles (~33 ms/step per PE)
  stencil::Sim sim(rt, sp);
  rt.lb().set_strategy(lb::make_greedy());
  if (meta) {
    rt.lb().set_advisor(lb::make_meta_advisor());
  }

  // Ambient 30C, full load saturates near 70C, and rack hot spots make the
  // chips throttle unevenly at the paper's 50C threshold.
  power::Manager pm(rt, /*period=*/0.4);
  pm.start(policy, lb_period);

  // The smoke cap is the smallest step count at which every scheme's exec_s
  // differs: LB_10s leaves Naive_DVFS only after its first rebalance, 10 s
  // of virtual time in.
  bool done = false;
  rt.on_pe(0, [&] {
    sim.run(bench::cap_steps(600, 208), Callback::to_function([&](ReductionResult&&) {
      done = true;
      rt.exit();
    }));
  });
  m.run();
  pm.stop();
  Outcome out;
  out.exec_s = m.max_pe_clock();
  out.max_temp = pm.max_temp_seen();
  bench::check(done, "power-policy run completed");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  struct Scheme {
    const char* name;
    power::Policy policy;
    double lb_period;
    bool meta;
  };
  const Scheme schemes[] = {
      {"Base", power::Policy::kNone, 0, false},
      {"Naive_DVFS", power::Policy::kNaiveDvfs, 0, false},
      {"LB_10s", power::Policy::kDvfsLb, 10.0, false},
      {"LB_5s", power::Policy::kDvfsLb, 5.0, false},
      {"MetaTemp", power::Policy::kMetaTemp, 0, true},
  };
  // Rows are numeric, so the title maps each scheme_id to its name.
  std::string title = "DVFS timing penalty and max chip temperature (threshold 50C); scheme_id";
  for (std::size_t id = 0; id < std::size(schemes); ++id)
    title += " " + std::to_string(id) + "=" + schemes[id].name;
  bench::header("Figure 4", title);
  bench::columns({"scheme_id", "exec_s", "max_temp_C"});
  for (std::size_t id = 0; id < std::size(schemes); ++id) {
    const Scheme& s = schemes[id];
    const Outcome o = run_policy(s.policy, s.lb_period, s.meta);
    bench::row({static_cast<double>(id), o.exec_s, o.max_temp});
  }
  bench::note("paper shape: Base is fastest but hot (>threshold); Naive DVFS pays the largest");
  bench::note("timing penalty; LB_10s/LB_5s shrink it; MetaTemp performs best while staying cool");
  return bench::finish();
}
