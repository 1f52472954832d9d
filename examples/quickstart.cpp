// Quickstart: the smallest complete charmlike program.
//
//   * create an emulated machine and a runtime
//   * define a chare array with entry methods
//   * send messages, broadcast, reduce
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "runtime/charm.hpp"

using namespace charm;

struct GreetMsg {
  int from = -1;
  void pup(pup::Er& p) { p | from; }
};

// A chare array element: a plain C++ class deriving from ArrayElement.
// Entry methods are ordinary member functions taking one pup-able argument.
class Hello : public ArrayElement<Hello, std::int32_t> {
 public:
  void greet(const GreetMsg& m) {
    std::printf("  [vt=%8.2f us] chare %d on PE %d greeted by %d\n",
                charm::now() * 1e6, static_cast<int>(index()), pe(), m.from);
    charm::charge(1e-6);  // model a microsecond of work

    // Forward the greeting around the ring once.
    if (m.from < static_cast<int>(index())) {
      ArrayProxy<Hello> peers(collection_id());
      peers[(index() + 1) % 8].send<&Hello::greet>(GreetMsg{static_cast<int>(index())});
    } else {
      // Everyone contributes to a sum reduction once the ring completes.
      ArrayProxy<Hello> peers(collection_id());
      peers.broadcast<&Hello::tally>();
    }
  }

  void tally() { contribute(static_cast<double>(index()), ReduceOp::kSum, done); }

  static Callback done;
};

Callback Hello::done;

int main() {
  // A 4-PE emulated machine (see DESIGN.md: PEs have virtual clocks and an
  // alpha/beta network model; programs charge virtual time for their work).
  sim::MachineConfig cfg;
  cfg.npes = 4;
  sim::Machine machine(cfg);
  Runtime rt(machine);

  // An 8-element chare array spread over the 4 PEs.
  auto hellos = ArrayProxy<Hello>::create(rt);
  for (int i = 0; i < 8; ++i) hellos.seed(i, i % 4);

  double sum = -1;  // stays -1 unless the reduction fires
  Hello::done = Callback::to_function([&](ReductionResult&& r) {
    sum = r.num(0);
    std::printf("reduction over all chares: sum of indices = %.0f\n", sum);
    rt.exit();
  });

  std::printf("starting ring of greetings...\n");
  rt.on_pe(0, [&] { hellos[0].send<&Hello::greet>(GreetMsg{-1}); });
  machine.run();

  std::printf("done at virtual time %.2f us after %llu events\n",
              machine.max_pe_clock() * 1e6,
              static_cast<unsigned long long>(machine.events_processed()));
  return sum == 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 ? 0 : 1;
}
