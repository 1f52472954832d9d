// AMPI example: an "MPI program" estimating pi, run as 32 virtualized ranks
// on 4 emulated PEs — user-level threads, blocking collectives, migration.

#include <cmath>
#include <cstdio>
#include <numbers>

#include "ampi/ampi.hpp"

using namespace charm;

int main() {
  sim::MachineConfig cfg;
  cfg.npes = 4;
  sim::Machine machine(cfg);
  Runtime rt(machine);

  const int nranks = 32;
  double pi_estimate = 0;

  ampi::World world(rt, nranks, [&](ampi::Comm& comm) {
    // Monte-Carlo pi, deterministic per rank.
    sim::Rng rng(sim::derive_seed(99, static_cast<std::uint64_t>(comm.rank())));
    const int samples = 20000;
    int inside = 0;
    for (int s = 0; s < samples; ++s) {
      const double x = rng.next_double(), y = rng.next_double();
      if (x * x + y * y <= 1.0) ++inside;
    }
    comm.charge(samples * 5e-9);  // model the sampling work

    // Rank 0 is 4x slower this phase (pretend data imbalance); migrate lets
    // the balancer react.
    if (comm.rank() % 8 == 0) comm.charge(samples * 15e-9);
    comm.migrate();

    const double total =
        comm.allreduce(static_cast<double>(inside), ReduceOp::kSum);
    if (comm.rank() == 0) {
      pi_estimate = 4.0 * total / (static_cast<double>(nranks) * samples);
    }
    comm.barrier();
  });

  rt.lb().set_strategy(lb::make_greedy());
  rt.lb().set_period(1);

  bool done = false;
  rt.on_pe(0, [&] {
    world.start(Callback::to_function([&](ReductionResult&&) {
      done = true;
      rt.exit();
    }));
  });
  machine.run();

  std::printf("done=%d  pi ~ %.6f  (32 ranks on 4 PEs, ULT stacks migrated by the LB)\n",
              done ? 1 : 0, pi_estimate);
  std::printf("virtual time: %.3f ms; LB invocations: %d\n", machine.max_pe_clock() * 1e3,
              rt.lb().lb_invocations());
  // 640000 samples: a standard error of about 0.002.
  return done && std::abs(pi_estimate - std::numbers::pi) < 0.01 ? 0 : 1;
}
