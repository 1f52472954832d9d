// LeanMD example: molecular dynamics with cells + pairwise computes,
// clustered density, RefineLB, and a double in-memory checkpoint with a
// simulated node failure mid-run.

#include <cstdio>

#include "ft/mem_checkpoint.hpp"
#include "miniapps/leanmd/leanmd.hpp"

using namespace charm;

int main() {
  sim::MachineConfig cfg;
  cfg.npes = 8;
  sim::Machine machine(cfg);
  Runtime rt(machine);

  leanmd::Params p;
  p.nx = p.ny = p.nz = 4;
  p.atoms_per_cell = 24;
  p.clustering = 2.0;  // denser on the high-x side: load imbalance
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);
  rt.lb().set_strategy(lb::make_refine(1.05));
  rt.lb().set_period(3);

  ft::MemCheckpointer ckpt(rt);

  std::printf("LeanMD: %d cells, %d computes, %zu atoms on %d PEs\n", sim.ncells(),
              sim.ncomputes(), sim.total_atoms(), rt.npes());

  const std::size_t atoms = sim.total_atoms();
  bool finished = false;
  rt.on_pe(0, [&] {
    sim.run(6, Callback::to_function([&](ReductionResult&&) {
      std::printf("[vt=%.3f ms] 6 steps done; taking double in-memory checkpoint\n",
                  charm::now() * 1e3);
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        std::printf("[vt=%.3f ms] checkpoint complete (%llu bytes); continuing\n",
                    charm::now() * 1e3,
                    static_cast<unsigned long long>(ckpt.checkpoint_bytes()));
        sim.run(3, Callback::to_function([&](ReductionResult&&) {
          std::printf("[vt=%.3f ms] PE 5 fails!  recovering from buddy copies...\n",
                      charm::now() * 1e3);
          ckpt.fail_and_recover(5, Callback::to_function([&](ReductionResult&&) {
            std::printf("[vt=%.3f ms] recovered; rolled back to the checkpoint\n",
                        charm::now() * 1e3);
            sim.run(6, Callback::to_function([&](ReductionResult&&) {
              std::printf("[vt=%.3f ms] finished after recovery\n", charm::now() * 1e3);
              finished = true;
              rt.exit();
            }));
          }));
        }));
      }));
    }));
  });
  machine.run();

  std::printf("final: %zu atoms (conserved), kinetic energy %.6f\n", sim.total_atoms(),
              sim.kinetic_energy());
  std::printf("LB rounds: %d, balancer invocations: %d\n", rt.lb().rounds_completed(),
              rt.lb().lb_invocations());
  return finished && sim.total_atoms() == atoms ? 0 : 1;
}
