// Ablation: the LB strategy suite on one imbalanced workload.
//
// Same clustered LeanMD configuration for every strategy; reports makespan,
// number of migrations, and the post-balance imbalance the runtime measured.
// This is the "which balancer should I use" table the paper's §III-A implies:
// Greedy balances best but migrates everything; Refine preserves locality;
// Hybrid approximates Greedy hierarchically; DistributedLB trades balance
// quality for O(1) decision state per PE.

#include <array>

#include "bench_common.hpp"
#include "lb/load_db.hpp"
#include "miniapps/leanmd/leanmd.hpp"

namespace {

using namespace charm;

struct Outcome {
  double makespan = 0;
  int migrations = 0;
  double final_imbalance = 1.0;
  int rounds = 0;      ///< AtSync rounds completed
  int lb_rounds = 0;   ///< rounds that ran a strategy
  lb::LoadDb::Counters db;  ///< load-database maintenance counters
};

Outcome run_with(const char* which) {
  sim::Machine m(bench::machine_config(16));
  bench::attach_trace(m);
  Runtime rt(m);
  leanmd::Params p;
  p.nx = p.ny = p.nz = 5;
  p.atoms_per_cell = 24;
  p.pair_cost = 25e-9;
  p.clustering = 2.5;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(rt, p);

  const std::string s = which;
  if (s == "Greedy") {
    rt.lb().set_strategy(lb::make_greedy());
  } else if (s == "Refine") {
    rt.lb().set_strategy(lb::make_refine(1.05));
  } else if (s == "Hybrid") {
    rt.lb().set_strategy(lb::make_hybrid());
  } else if (s == "Orb") {
    rt.lb().set_strategy(lb::make_orb());
  } else if (s == "Distributed") {
    rt.lb().use_distributed();
  }
  if (s != "NoLB") rt.lb().set_period(4);

  bool done = false;
  rt.on_pe(0, [&] {
    sim.run(bench::cap_steps(12, 5), Callback::to_function([&](ReductionResult&&) {
      done = true;
      rt.exit();
    }));
  });
  m.run();

  Outcome out;
  out.makespan = m.max_pe_clock();
  for (const auto& r : rt.lb().history()) {
    out.migrations += r.migrations;
    if (r.avg_load > 0) out.final_imbalance = r.max_load / r.avg_load;
  }
  out.rounds = rt.lb().rounds_completed();
  out.lb_rounds = rt.lb().lb_invocations();
  out.db = rt.lb().db_counters();
  bench::check(done, std::string(which) + " run completed");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Ablation", "LB strategies on clustered LeanMD (16 PEs, 125 cells)");
  const std::array<const char*, 6> strategies{"NoLB",   "Greedy", "Refine",
                                              "Hybrid", "Orb",    "Distributed"};
  std::array<Outcome, strategies.size()> outcomes;
  std::printf("%16s%16s%16s%16s\n", "strategy", "makespan_s", "migrations", "final_imb");
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const Outcome o = run_with(strategies[i]);
    std::printf("%16s%16.4f%16d%16.3f\n", strategies[i], o.makespan, o.migrations,
                o.final_imbalance);
    outcomes[i] = o;
  }
  bench::note("expected: every strategy beats NoLB; Refine moves far fewer chares than Greedy;");
  bench::note("Distributed lands between Refine and Greedy with no central state");

  // Incremental decision-loop ablation (DESIGN.md §13): how much database
  // maintenance each strategy's rounds actually did.  Every value is an
  // integer event count from the virtual-time run, so this table is
  // byte-stable across hosts and gated by the CI fig-regen cmp.
  bench::header("Ablation", "lb_decision: incremental load-db work per strategy (integer counters)");
  bench::columns({"strategy", "rounds", "lb_rounds", "snapshots", "rebuilds", "dirty_reads",
                  "patched", "merge_fix", "full_sorts", "migrations"});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const Outcome& o = outcomes[i];
    bench::row({static_cast<double>(i), static_cast<double>(o.rounds),
                static_cast<double>(o.lb_rounds), static_cast<double>(o.db.snapshots),
                static_cast<double>(o.db.structural_rebuilds),
                static_cast<double>(o.db.dirty_flushed),
                static_cast<double>(o.db.patched_copies),
                static_cast<double>(o.db.index_merge_repairs),
                static_cast<double>(o.db.index_full_sorts),
                static_cast<double>(o.migrations)});
  }
  bench::note("strategy: 0=NoLB 1=Greedy 2=Refine 3=Hybrid 4=Orb 5=Distributed");
  bench::note("dirty_reads is slot re-reads across all snapshots, not chares*rounds:");
  bench::note("steady chares are never re-read, and patched snapshots re-copy only them");
  return bench::finish();
}
