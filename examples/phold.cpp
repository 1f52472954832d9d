// PHOLD example: parallel discrete event simulation with the YAWNS
// conservative protocol, with and without TRAM message aggregation.

#include <cstdio>

#include "miniapps/pdes/pdes.hpp"

using namespace charm;

int main() {
  int completed = 0;
  for (const bool use_tram : {false, true}) {
    sim::MachineConfig cfg;
    cfg.npes = 16;
    sim::Machine machine(cfg);
    Runtime rt(machine);

    pdes::Params p;
    p.nlps = 16 * 128;
    p.initial_events_per_lp = 48;
    p.use_tram = use_tram;
    p.tram_buffer = 64;
    pdes::Engine eng(rt, p);

    rt.on_pe(0, [&] {
      eng.run_until(5.0, Callback::to_function([&](ReductionResult&&) { ++completed; }));
    });
    machine.run();

    std::printf("%-8s %6d LPs, %3d windows, %9llu events, rate %.2fM events/s, %llu msgs\n",
                use_tram ? "TRAM" : "direct", p.nlps, eng.windows(),
                static_cast<unsigned long long>(eng.total_executed()),
                static_cast<double>(eng.total_executed()) / machine.max_pe_clock() / 1e6,
                static_cast<unsigned long long>(rt.messages_sent()));
  }
  std::printf("(TRAM batches fine-grained events along the torus; fewer, bigger messages)\n");
  return completed == 2 ? 0 : 1;
}
