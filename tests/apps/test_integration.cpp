// Cross-module integration tests: the paper's feature combinations —
// malleability driving a real app, MetaTemp vs periodic LB under DVFS,
// deep AMR depth ranges, AMPI messaging semantics under virtualization.

#include <gtest/gtest.h>

#include "ampi/ampi.hpp"
#include "lb/meta.hpp"
#include "malleability/malleability.hpp"
#include "miniapps/amr/amr.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "power/power_manager.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

using charmtest::Harness;

TEST(Integration, LeanMdShrinkDoublesStepTimeExpandRestores) {
  // The Fig 5 mechanism end-to-end on the real mini-app.
  Harness h(8);
  leanmd::Params p;
  p.nx = p.ny = p.nz = 4;
  p.atoms_per_cell = 40;  // compute-dominated so PE count governs step time
  p.pair_cost = 25e-9;
  p.epsilon = 1e-6;
  leanmd::Simulation sim(h.rt, p);
  h.rt.lb().set_strategy(lb::make_greedy());
  ccs::Server ccs(h.rt);

  bool finished = false;
  h.rt.on_pe(0, [&] {
    sim.run(6, Callback::to_function([&](ReductionResult&&) {
      ccs.request_shrink(4, Callback::ignore());
      sim.run(6, Callback::to_function([&](ReductionResult&&) {
        ccs.request_expand(8, Callback::ignore());
        sim.run(6, Callback::to_function([&](ReductionResult&&) { finished = true; }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(finished);
  ASSERT_EQ(h.rt.active_pes(), 8);

  // Extract per-phase steady step times from the LB round history, skipping
  // reconfiguration rounds and the first (warm-up) round of each phase.
  const auto& hist = h.rt.lb().history();
  ASSERT_GE(hist.size(), 18u);
  auto avg_steps = [&](int lo, int hi) {
    double sum = 0;
    int n = 0;
    for (int i = lo; i < hi; ++i) {
      const double dt = hist[static_cast<std::size_t>(i)].completed_at -
                        hist[static_cast<std::size_t>(i - 1)].completed_at;
      sum += dt;
      ++n;
    }
    return sum / n;
  };
  // Compare the two post-reconfig steady phases (both placed by the same
  // greedy balancer): 4 PEs vs 8 PEs.
  const double shrunk = avg_steps(9, 12);   // after the shrink reconfig settles
  const double full2 = avg_steps(15, 18);   // after the expand reconfig settles
  EXPECT_GT(shrunk, full2 * 1.5) << "halving PEs should ~double the step time";
  EXPECT_LT(full2, shrunk * 0.7) << "expanding back should restore throughput";
}

TEST(Integration, MetaTempBeatsNaiveDvfs) {
  auto run = [](power::Policy policy, bool meta) {
    sim::Machine m(sim::MachineConfig{8, {}, 4});
    Runtime rt(m);
    stencil::Params sp;
    sp.grid = 128;
    sp.tiles_x = sp.tiles_y = 8;
    sp.cell_cost = 8e-6;
    stencil::Sim sim(rt, sp);
    rt.lb().set_strategy(lb::make_greedy());
    if (meta) {
      rt.lb().set_advisor(lb::make_meta_advisor());
    }
    power::Manager pm(rt, 0.3);
    pm.start(policy);
    bool done = false;
    rt.on_pe(0, [&] {
      sim.run(400, Callback::to_function([&](ReductionResult&&) {
        done = true;
        rt.exit();
      }));
    });
    m.run();
    pm.stop();
    EXPECT_TRUE(done);
    return std::pair<double, double>(m.max_pe_clock(), pm.max_temp_seen());
  };
  auto [t_naive, temp_naive] = run(power::Policy::kNaiveDvfs, false);
  auto [t_meta, temp_meta] = run(power::Policy::kMetaTemp, true);
  EXPECT_LT(t_meta, t_naive) << "MetaTemp should recover part of the DVFS penalty";
  EXPECT_LT(temp_meta, 56.0) << "temperature stays constrained";
  EXPECT_LT(temp_naive, 56.0);
}

TEST(Integration, AmrDeeperDepthRangeStillConservesStructure) {
  Harness h(8);
  amr::Params p;
  p.block = 4;
  p.min_depth = 1;
  p.max_depth = 4;  // a 3-level dynamic range
  p.refine_threshold = 0.3;
  p.coarsen_threshold = 0.05;
  amr::Mesh mesh(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    mesh.run(5, 3, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_GE(mesh.restructures(), 4);
  EXPECT_GE(mesh.max_depth_present(), 2);
  EXPECT_LE(mesh.max_depth_present(), 4);
  // Total block count is always congruent with an oct-tree leaf set:
  // N = 8^min + 7k for some k >= 0.
  const auto n = mesh.nblocks();
  EXPECT_EQ((n - 8) % 7, 0) << "leaf count must stay oct-tree-consistent";
}

TEST(Integration, AmpiTagAndSourceMatchingUnderVirtualization) {
  Harness h(2);
  std::vector<int> got;
  ampi::World world(h.rt, 8, [&](ampi::Comm& comm) {
    if (comm.rank() == 0) {
      // Receive tag 2 before tag 1, regardless of arrival order.
      got.push_back(comm.recv_value<int>(ampi::kAnySource, 2));
      got.push_back(comm.recv_value<int>(ampi::kAnySource, 1));
      got.push_back(comm.recv_value<int>(3, ampi::kAnyTag));
    } else if (comm.rank() == 1) {
      comm.send_value(0, 1, 100);
    } else if (comm.rank() == 2) {
      comm.send_value(0, 2, 200);
    } else if (comm.rank() == 3) {
      comm.send_value(0, 7, 300);
    }
  });
  bool completed = false;
  h.rt.on_pe(0, [&] {
    world.start(Callback::to_function([&](ReductionResult&&) { completed = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(completed);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 200);
  EXPECT_EQ(got[1], 100);
  EXPECT_EQ(got[2], 300);
}

TEST(Integration, DeterministicEndToEnd) {
  // The whole stack — app + LB + reductions — must be bit-deterministic.
  auto run = [] {
    Harness h(8);
    leanmd::Params p;
    p.nx = p.ny = p.nz = 3;
    p.atoms_per_cell = 10;
    p.clustering = 1.0;
    leanmd::Simulation sim(h.rt, p);
    h.rt.lb().set_strategy(lb::make_greedy());
    h.rt.lb().set_period(2);
    h.rt.on_pe(0, [&] { sim.run(6, Callback::ignore()); });
    h.machine.run();
    return std::tuple<double, double, std::uint64_t>(
        h.machine.max_pe_clock(), sim.kinetic_energy(), h.rt.messages_sent());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

}  // namespace
