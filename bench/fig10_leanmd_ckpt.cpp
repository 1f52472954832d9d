// Fig 10: LeanMD double in-memory checkpoint and restart times for two
// system sizes vs PE count (paper: 2.8M / 1.6M atoms; checkpoint falls with
// PEs, restart grows slightly with PEs due to recovery barriers).
//
// With --mtbf=SEC the bench instead runs LeanMD under ft::ResilientDriver
// while sim::FaultInjector kills PEs at random (seeded) times: the run rolls
// back to the last double in-memory checkpoint after each failure, replays,
// and completes.  Combine with --trace=FILE to see the failure / restore
// phase spans in the Chrome trace.

#include "bench_common.hpp"
#include "ft/mem_checkpoint.hpp"
#include "ft/resilient_driver.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "sim/fault_injector.hpp"

namespace {

using namespace charm;

std::pair<double, double> times(int npes, int cells_per_dim) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Params p;
  p.nx = p.ny = p.nz = static_cast<std::int16_t>(cells_per_dim);
  p.atoms_per_cell = 24;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);
  ft::MemCheckpointer ckpt(rt);
  double t_ckpt = -1, t_restart = -1;
  rt.on_pe(0, [&] {
    sim.run(2, Callback::to_function([&](ReductionResult&&) {
      const double t0 = charm::now();
      ckpt.checkpoint(Callback::to_function([&, t0](ReductionResult&&) {
        t_ckpt = charm::now() - t0;
        const double t1 = charm::now();
        ckpt.fail_and_recover(npes - 1, Callback::to_function([&, t1](ReductionResult&&) {
          t_restart = charm::now() - t1;
          rt.exit();
        }));
      }));
    }));
  });
  m.run();
  return {t_ckpt, t_restart};
}

/// --mtbf mode: LeanMD to completion under random PE failures.
int run_resilient(int npes, int total_steps, int ckpt_period) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Params p;
  p.nx = p.ny = p.nz = bench::smoke() ? 4 : 6;
  p.atoms_per_cell = 24;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);

  sim::FaultConfig fcfg;
  fcfg.mode = sim::FaultMode::kMtbf;
  fcfg.mtbf = bench::fault_options().mtbf;
  fcfg.seed = bench::fault_options().fault_seed;
  fcfg.max_failures = bench::fault_options().failures;
  const ft::MemCkptParams ckpt_params;
  // Keep consecutive failures out of each other's detection window: two dead
  // PEs in one burst can be buddies, which double checkpointing cannot survive.
  fcfg.min_gap = 2.5 * ckpt_params.detect_delay;
  sim::FaultInjector fi(fcfg);
  ft::MemCheckpointer ckpt(rt, ckpt_params);
  ckpt.attach_injector(fi);

  bool finished = false;
  ft::ResilientDriver drv(
      rt, ckpt,
      [&](int step, std::function<void()> boundary) {
        // Arm the injector only once the initial checkpoint has committed; a
        // failure with no checkpoint to fall back to is (rightly) fatal.
        if (step == 1) m.set_fault_injector(&fi);
        sim.run(1, Callback::to_function(
                       [boundary = std::move(boundary)](ReductionResult&&) { boundary(); }));
      },
      total_steps, ckpt_period);
  rt.on_pe(0, [&] {
    drv.start(Callback::to_function([&](ReductionResult&&) {
      finished = true;
      m.set_fault_injector(nullptr);
    }));
  });
  m.run();

  bench::columns({"PEs", "steps", "failures", "recoveries", "replayed", "makespan_ms"});
  bench::row({static_cast<double>(npes), static_cast<double>(drv.steps_completed()),
              static_cast<double>(fi.failures_injected()),
              static_cast<double>(ckpt.recoveries_completed()),
              static_cast<double>(drv.steps_replayed()), m.max_pe_clock() * 1e3});
  if (!fi.log().empty()) {
    bench::note("failure schedule (seed " +
                std::to_string(bench::fault_options().fault_seed) + "):");
    std::printf("%s", fi.format_log().c_str());
    std::printf("messages dropped at failed PEs: %llu\n",
                static_cast<unsigned long long>(m.messages_dropped()));
  }
  if (!finished) {
    std::fprintf(stderr, "resilient run did not complete\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& fault_flags = bench::fault_flags();
  if (bench::parse_args(argc, argv, fault_flags.data(), fault_flags.size()) != 0) return 1;
  if (bench::fault_options().mtbf > 0) {
    bench::header("Figure 10 (resilience mode)",
                  "LeanMD under injected PE failures, checkpoint/rollback/replay");
    const int rc = run_resilient(bench::smoke() ? 8 : 32,
                                 bench::cap_steps(20, 6), /*ckpt_period=*/2);
    if (rc != 0) return rc;
    const int frc = bench::finish();
    return frc;
  }
  bench::header("Figure 10", "LeanMD in-memory checkpoint/restart, two system sizes");
  bench::columns({"PEs", "big_ckpt_ms", "small_ckpt_ms", "big_restart_ms", "small_restart_ms"});
  for (int p : bench::pe_series({8, 16, 32, 64})) {
    auto [cb, rb] = times(p, 8);  // "2.8M-atom" analogue
    auto [cs, rs] = times(p, 6);  // "1.6M-atom" analogue
    bench::row({static_cast<double>(p), cb * 1e3, cs * 1e3, rb * 1e3, rs * 1e3});
  }
  bench::note("paper shape: checkpoint time falls with PEs (less data per PE, 43ms->33ms);");
  bench::note("restart time creeps up with PEs (recovery barriers, 66ms->139ms)");
  return bench::finish();
}
