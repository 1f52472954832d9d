// Collectives micro-bench: broadcast -> contribute -> completion rounds swept
// over (topology x arity x machine size), comparing the seed's flat combine
// (modeled tree wave) against real distributed k-ary spanning-tree
// collectives (DESIGN.md §10).  Each cell reports virtual time per round and
// the message/byte/partial-send counters the topology generates; the cells
// are exported as the stats JSON's "collectives" section, which CI's
// scripts/gate.py regenerates byte-identical to bench_stats/BENCH_collectives.json.
//
// Usage: collectives [--smoke] [--stats=FILE] [--trace=FILE]

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "runtime/charm.hpp"

namespace {

using charm::Callback;
using charm::ReduceOp;
using charm::ReductionResult;

struct GoMsg {
  int op = 0;
  void pup(pup::Er& p) { p | op; }
};

class Reducer : public charm::ArrayElement<Reducer, std::int32_t> {
 public:
  void go(const GoMsg& m) {
    const ReduceOp op = m.op == 0   ? ReduceOp::kSum
                        : m.op == 1 ? ReduceOp::kMin
                                    : ReduceOp::kMax;
    contribute(static_cast<double>(index()), op, cb);
  }

  static Callback cb;

  void pup(pup::Er& p) override { ArrayElementBase::pup(p); }
};

Callback Reducer::cb;

struct CellResult {
  double makespan = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t partial_sends = 0;
};

CellResult run_cell(bool tree, int arity, int npes, int elements, int rounds) {
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  charm::RuntimeConfig rc;
  if (tree) {
    rc.collectives = charm::CollectiveTopology::kTree;
    rc.tree_fanout = arity;
  }
  charm::Runtime rt(m, rc);
  auto arr = charm::ArrayProxy<Reducer>::create(rt);
  for (int i = 0; i < elements; ++i) arr.seed(i, i % npes);

  int round = 0;
  Reducer::cb = Callback::to_function([&](ReductionResult&&) {
    if (++round < rounds) arr.broadcast<&Reducer::go>(GoMsg{round % 3});
  });
  rt.on_pe(0, [&] { arr.broadcast<&Reducer::go>(GoMsg{0}); });
  m.run();

  CellResult r;
  r.makespan = m.now();
  r.msgs = rt.messages_sent();
  r.bytes = rt.bytes_sent();
  r.partial_sends = rt.reduction_partials_sent();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;

  const bool smoke = bench::smoke();
  // Smoke shrinks rounds, never the sweep shape: CI gates the same
  // (topology x arity x P) surface the full run covers.
  const int rounds = smoke ? 8 : 32;
  const std::vector<int> pes = smoke ? std::vector<int>{8, 32}
                                     : std::vector<int>{8, 32, 128};
  // arity 0 = the seed's flat combine; k >= 2 = real spanning-tree waves.
  const int arities[] = {0, 2, 4, 8};

  bench::header("collectives",
                "spanning-tree vs flat collectives: broadcast+reduce rounds");
  bench::columns({"arity", "PEs", "elements", "rounds", "us/round", "msgs",
                  "partial_sends"});
  for (int npes : pes) {
    const int elements = 4 * npes;
    for (int arity : arities) {
      const bool tree = arity != 0;
      const CellResult r = run_cell(tree, arity, npes, elements, rounds);
      const double per_round = r.makespan / rounds;
      bench::row({static_cast<double>(arity), static_cast<double>(npes),
                  static_cast<double>(elements), static_cast<double>(rounds),
                  per_round * 1e6, static_cast<double>(r.msgs),
                  static_cast<double>(r.partial_sends)});
      stats::CollectivesCell cell;
      cell.topology = tree ? "tree" : "flat";
      cell.arity = arity;
      cell.npes = npes;
      cell.elements = elements;
      cell.rounds = rounds;
      cell.payload_doubles = 1;
      cell.msgs = r.msgs;
      cell.bytes = r.bytes;
      cell.partial_sends = r.partial_sends;
      cell.makespan = r.makespan;
      cell.time_per_round = per_round;
      bench::collectives_cells().push_back(std::move(cell));
    }
  }
  bench::note("arity 0 = flat centralized combine (modeled tree wave); k>=2 = real k-ary spanning-tree partial-combine messages rooted at PE 0");
  bench::note("partial_sends counts up-sweep messages: (participating PEs - 1) per round under tree, 0 under flat");
  return bench::finish();
}
