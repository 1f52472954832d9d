// AMR3D tests: oct-tree index arithmetic, mesh invariants through
// restructuring, advection conservation, dynamic block counts, distributed
// memory bound, and LB/checkpoint interaction.

#include <gtest/gtest.h>

#include <cmath>

#include "ft/mem_checkpoint.hpp"
#include "miniapps/amr/amr.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;
using amr::Mesh;
using amr::Params;

using charmtest::Harness;

TEST(AmrIndex, CoordsRoundTrip) {
  for (int depth = 1; depth <= 4; ++depth) {
    const int n = 1 << depth;
    for (int x = 0; x < n; x += 3) {
      for (int y = 0; y < n; y += 2) {
        for (int z = 0; z < n; ++z) {
          const BitIndex ix = amr::index_at(depth, x, y, z);
          EXPECT_EQ(ix.depth, depth);
          const auto c = amr::coords_of(ix);
          EXPECT_EQ(c[0], x);
          EXPECT_EQ(c[1], y);
          EXPECT_EQ(c[2], z);
        }
      }
    }
  }
}

TEST(AmrIndex, FaceNeighborsWrapPeriodically) {
  const BitIndex ix = amr::index_at(3, 0, 2, 7);
  auto nb = amr::coords_of(amr::face_neighbor(ix, 0, -1));
  EXPECT_EQ(nb[0], 7);  // wrapped
  nb = amr::coords_of(amr::face_neighbor(ix, 2, +1));
  EXPECT_EQ(nb[2], 0);  // wrapped
  nb = amr::coords_of(amr::face_neighbor(ix, 1, +1));
  EXPECT_EQ(nb[1], 3);
}

TEST(AmrIndex, ParentChildConsistency) {
  const BitIndex root;
  const BitIndex c = root.child(5).child(2).child(7);
  EXPECT_EQ(c.depth, 3);
  EXPECT_EQ(c.parent().parent().octant_at(0), 5);
  const auto pc = amr::coords_of(c.parent());
  const auto cc = amr::coords_of(c);
  for (int d = 0; d < 3; ++d) EXPECT_EQ(cc[static_cast<std::size_t>(d)] / 2,
                                        pc[static_cast<std::size_t>(d)]);
}

Params small_params() {
  Params p;
  p.block = 4;
  p.min_depth = 1;
  p.max_depth = 3;
  return p;
}

TEST(Amr, UniformMeshAdvectionConservesMassExactly) {
  Harness h(4);
  Params p = small_params();
  p.refine_threshold = 99.0;  // never refine: uniform mesh
  Mesh mesh(h.rt, p);
  const double m0_expected = 0;
  (void)m0_expected;
  bool done = false;
  double m0 = -1;
  h.rt.on_pe(0, [&] {
    mesh.run(1, 6, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  // Mass before: field initialized lazily at begin; take mass after first run.
  h.machine.run();
  ASSERT_TRUE(done);
  m0 = mesh.total_mass();
  h.machine.resume();
  bool done2 = false;
  h.rt.on_pe(0, [&] {
    mesh.run(1, 6, Callback::to_function([&](ReductionResult&&) { done2 = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done2);
  EXPECT_NEAR(mesh.total_mass(), m0, std::abs(m0) * 1e-12)
      << "periodic upwind advection is conservative on a uniform mesh";
  EXPECT_EQ(mesh.nblocks(), 8);  // min_depth 1 => 8 blocks, no refinement
}

TEST(Amr, RefinementCreatesAndCoarseningDestroysBlocks) {
  Harness h(4);
  Params p = small_params();
  p.refine_threshold = 0.4;
  p.coarsen_threshold = 0.05;
  Mesh mesh(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    mesh.run(4, 3, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_GT(mesh.restructures(), 0);
  // The Gaussian blob must have triggered refinement somewhere.
  EXPECT_GT(mesh.max_depth_present(), p.min_depth);
  EXPECT_GT(mesh.nblocks(), 8);
  EXPECT_LE(mesh.max_depth_present(), p.max_depth);
  EXPECT_GE(mesh.min_depth_present(), p.min_depth);
}

TEST(Amr, MassApproximatelyConservedThroughRestructuring) {
  Harness h(4);
  Params p = small_params();
  Mesh mesh(h.rt, p);
  bool done = false;
  double m0 = -1;
  h.rt.on_pe(0, [&] {
    mesh.run(1, 1, Callback::to_function([&](ReductionResult&&) {
      m0 = mesh.total_mass();
      mesh.run(5, 4, Callback::to_function([&](ReductionResult&&) { done = true; }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  // Prolongation/restriction and cross-level ghosts are not exactly
  // conservative; require the integral to stay in the right ballpark.
  EXPECT_NEAR(mesh.total_mass(), m0, std::abs(m0) * 0.2);
}

TEST(Amr, TwoToOneBalanceHolds) {
  Harness h(4);
  Params p = small_params();
  Mesh mesh(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    mesh.run(4, 3, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  // Check depth gap across all faces by scanning block depths per region.
  Collection& c = h.rt.collection(mesh.blocks().id());
  std::map<std::uint64_t, int> depth_at;  // ident -> depth
  for (int pe = 0; pe < h.rt.npes(); ++pe) {
    for (auto& [ix, obj] : c.local(pe).elems) {
      auto* b = static_cast<amr::Block*>(obj.get());
      const BitIndex bi = b->index();
      depth_at[(static_cast<std::uint64_t>(bi.depth) << 56) | bi.bits] = bi.depth;
    }
  }
  for (int pe = 0; pe < h.rt.npes(); ++pe) {
    for (auto& [ix, obj] : c.local(pe).elems) {
      auto* b = static_cast<amr::Block*>(obj.get());
      const BitIndex bi = b->index();
      for (int dim = 0; dim < 3; ++dim) {
        for (int dir = -1; dir <= 1; dir += 2) {
          // A leaf must exist at depth-1, depth, or depth+1 covering the face.
          const BitIndex same = amr::face_neighbor(bi, dim, dir);
          const bool same_leaf =
              depth_at.count((static_cast<std::uint64_t>(same.depth) << 56) | same.bits) > 0;
          bool coarse_leaf = false;
          if (same.depth > 0) {
            const BitIndex par = same.parent();
            coarse_leaf =
                depth_at.count((static_cast<std::uint64_t>(par.depth) << 56) | par.bits) > 0;
          }
          bool fine_leaves = true;
          const int facing_bit = dir > 0 ? 0 : 1;
          for (int oct = 0; oct < 8; ++oct) {
            if (((oct >> dim) & 1) != facing_bit) continue;
            const BitIndex ch = same.child(oct);
            if (!depth_at.count((static_cast<std::uint64_t>(ch.depth) << 56) | ch.bits))
              fine_leaves = false;
          }
          EXPECT_TRUE(same_leaf || coarse_leaf || fine_leaves)
              << "face neighbor of depth-" << static_cast<int>(bi.depth)
              << " block violates 2:1 balance";
        }
      }
    }
  }
}

TEST(Amr, HomeTableMemoryStaysDistributed) {
  // O(#blocks/P) per PE (§IV-A-4), not O(#blocks).
  Harness h(16);
  Params p = small_params();
  p.min_depth = 2;  // 64 blocks
  Mesh mesh(h.rt, p);
  bool done = false;
  h.rt.on_pe(0, [&] {
    mesh.run(2, 2, Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  const auto total = static_cast<std::size_t>(mesh.nblocks());
  std::size_t max_home = 0;
  Collection& c = h.rt.collection(mesh.blocks().id());
  for (int pe = 0; pe < 16; ++pe) max_home = std::max(max_home, c.local(pe).home.size());
  EXPECT_LT(max_home, total / 2) << "home records must stay distributed";
}

TEST(Amr, DistributedLbReducesMakespan) {
  auto run = [](bool with_lb) {
    Harness h(8);
    Params p;
    p.block = 4;
    p.min_depth = 2;
    p.max_depth = 3;
    p.cell_cost = 80e-9;
    Mesh mesh(h.rt, p);
    if (with_lb) {
      h.rt.lb().use_distributed();
      h.rt.lb().set_period(4);
    }
    bool done = false;
    h.rt.on_pe(0, [&] {
      mesh.run(3, 8, Callback::to_function([&](ReductionResult&&) { done = true; }));
    });
    h.machine.run();
    EXPECT_TRUE(done);
    return h.machine.max_pe_clock();
  };
  // Refinement clusters blocks (and load) around the blob; distributed LB
  // should help once refinement has created imbalance.
  EXPECT_LT(run(true), run(false) * 1.05);
}

TEST(Amr, MemCheckpointRestoresMeshState) {
  Harness h(4);
  Params p = small_params();
  Mesh mesh(h.rt, p);
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;
  double mass_at_ckpt = -1;
  std::int64_t blocks_at_ckpt = -1;
  h.rt.on_pe(0, [&] {
    mesh.run(2, 3, Callback::to_function([&](ReductionResult&&) {
      mass_at_ckpt = mesh.total_mass();
      blocks_at_ckpt = mesh.nblocks();
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        mesh.run(2, 3, Callback::to_function([&](ReductionResult&&) {
          ckpt.fail_and_recover(2, Callback::to_function([&](ReductionResult&&) {
            recovered = true;
          }));
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);
  EXPECT_EQ(mesh.nblocks(), blocks_at_ckpt);
  EXPECT_NEAR(mesh.total_mass(), mass_at_ckpt, std::abs(mass_at_ckpt) * 1e-9);
}

}  // namespace
