// AMR example: a Gaussian blob advected through a periodic box; the mesh
// refines around the blob and coarsens behind it.  Prints the block-count /
// depth evolution across restructuring passes.

#include <cmath>
#include <cstdio>

#include "miniapps/amr/amr.hpp"

using namespace charm;

int main() {
  sim::MachineConfig cfg;
  cfg.npes = 8;
  sim::Machine machine(cfg);
  Runtime rt(machine);

  amr::Params p;
  p.block = 6;
  p.min_depth = 2;  // 64 blocks initially
  p.max_depth = 4;
  amr::Mesh mesh(rt, p);
  rt.lb().use_distributed();
  rt.lb().set_period(6);

  std::printf("AMR3D advection: %lld blocks at depth %d..%d, block=%d^3\n",
              static_cast<long long>(mesh.nblocks()), p.min_depth, p.max_depth, p.block);
  std::printf("%8s %10s %10s %10s %12s\n", "chunk", "blocks", "min_d", "max_d", "mass");

  const int chunks = 6, steps = 4;
  int chunk = 0;
  std::function<void()> report = [&]() {
    std::printf("%8d %10lld %10d %10d %12.6f\n", chunk,
                static_cast<long long>(mesh.nblocks()), mesh.min_depth_present(),
                mesh.max_depth_present(), mesh.total_mass());
  };

  // The field is filled at the first step, so the mass to conserve is the
  // one after the first chunk.
  double m0 = -1;
  bool finished = false;
  rt.on_pe(0, [&] {
    mesh.run(1, steps, Callback::to_function([&](ReductionResult&&) {
      chunk = 1;
      report();
      m0 = mesh.total_mass();
      mesh.run(chunks - 1, steps, Callback::to_function([&](ReductionResult&&) {
        chunk = chunks;
        report();
        finished = true;
        rt.exit();
      }));
    }));
  });
  machine.run();

  std::printf("restructuring passes: %d; virtual time %.3f ms; %llu runtime messages\n",
              mesh.restructures(), machine.max_pe_clock() * 1e3,
              static_cast<unsigned long long>(rt.messages_sent()));
  std::printf("(blocks are inserted/destroyed dynamically; each restructuring pass uses\n"
              " quiescence detection instead of O(depth) global collectives)\n");
  // Prolongation and restriction are not exactly conservative: the AMR
  // tests' 20% band.
  return finished && std::abs(mesh.total_mass() - m0) <= 0.2 * std::abs(m0) ? 0 : 1;
}
