// Sorting library tests: correctness (sorted, permutation) for both
// algorithms, balance quality of histsort probing, the baseline's root
// bottleneck, and interop from an AMPI program into the charm sort module.

#include <gtest/gtest.h>

#include <numeric>

#include "ampi/ampi.hpp"
#include "sort/sorting.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

using charmtest::Harness;

std::uint64_t checksum(const sortlib::Library& lib, int npes) {
  std::uint64_t x = 0;
  for (int pe = 0; pe < npes; ++pe)
    for (std::uint64_t k : lib.keys_on(pe)) x ^= k * 0x9E3779B97F4A7C15ull;
  return x;
}

class SortCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(SortCorrectness, HistSortSortsAndPreservesKeys) {
  const int P = GetParam();
  Harness h(P);
  sortlib::Library lib(h.rt);
  lib.fill_random(42, 512);
  const std::uint64_t before = checksum(lib, P);
  const std::uint64_t n_before = lib.total_keys();
  bool done = false;
  h.rt.on_pe(0, [&] {
    lib.hist_sort(Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(lib.validate());
  EXPECT_EQ(lib.total_keys(), n_before);
  EXPECT_EQ(checksum(lib, P), before) << "keys must be a permutation of the input";
}

TEST_P(SortCorrectness, MergeSortSortsAndPreservesKeys) {
  const int P = GetParam();
  Harness h(P);
  sortlib::Library lib(h.rt);
  lib.fill_random(43, 512);
  const std::uint64_t before = checksum(lib, P);
  bool done = false;
  h.rt.on_pe(0, [&] {
    lib.merge_sort(Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(lib.validate());
  EXPECT_EQ(checksum(lib, P), before);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, SortCorrectness, ::testing::Values(1, 2, 5, 8, 16));

TEST(Sort, HistSortProducesBalancedBlocks) {
  // kProbeRounds probes place every splitter within a few keys of its ideal
  // rank: no block exceeds the 5% that validate() allows.
  const int P = 16;
  Harness h(P);
  sortlib::Library lib(h.rt);
  lib.fill_random(7, 1024);
  bool done = false;
  h.rt.on_pe(0, [&] {
    lib.hist_sort(Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(lib.validate());
  const double ideal = 1024.0;
  for (int pe = 0; pe < P; ++pe) {
    EXPECT_LE(static_cast<double>(lib.keys_on(pe).size()),
              sortlib::Library::kBalanceTolerance * ideal)
        << pe;
  }
}

TEST(Sort, ValidateRejectsAnUnbalancedBlock) {
  // Sorted blocks of distinct keys, but PE 0 holds 2x its share.
  const int P = 4;
  Harness h(P);
  sortlib::Library lib(h.rt);
  std::uint64_t next = 0;
  for (int pe = 0; pe < P; ++pe) {
    auto* s = static_cast<sortlib::Sorter*>(h.rt.collection(lib.sorters().id())
                                                .find(pe, IndexTraits<std::int32_t>::encode(pe)));
    s->keys.resize(pe == 0 ? 200 : pe == 1 ? 0 : 100);
    for (auto& k : s->keys) k = next++;
  }
  EXPECT_FALSE(lib.validate());
  // The same blocks are acceptable when one key value fills PE 0: no
  // splitter can cut a run of equal keys.
  auto* s0 = static_cast<sortlib::Sorter*>(
      h.rt.collection(lib.sorters().id()).find(0, IndexTraits<std::int32_t>::encode(0)));
  for (auto& k : s0->keys) k = 0;
  EXPECT_TRUE(lib.validate());
}

TEST(Sort, SkewedInputStillSorts) {
  // Heavily duplicated keys stress splitter probing.
  const int P = 8;
  Harness h(P);
  sortlib::Library lib(h.rt);
  lib.fill_random(9, 256);
  for (int pe = 0; pe < P; ++pe) {
    auto* s = static_cast<sortlib::Sorter*>(h.rt.collection(lib.sorters().id())
                                                .find(pe, IndexTraits<std::int32_t>::encode(pe)));
    for (std::size_t i = 0; i < s->keys.size() / 2; ++i) s->keys[i] = 777;
  }
  bool done = false;
  h.rt.on_pe(0, [&] {
    lib.hist_sort(Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(lib.validate());
}

TEST(Sort, BaselineRootCostGrowsFasterWithP) {
  // The Fig 7 shape in miniature: baseline sort time grows with P while
  // histsort stays flat-ish (same per-PE data).
  auto time_sort = [](int P, bool hist) {
    Harness h(P);
    sortlib::Library lib(h.rt);
    lib.fill_random(11, 512);
    double t0 = 0, t1 = -1;
    h.rt.on_pe(0, [&] {
      t0 = charm::now();
      auto cb = Callback::to_function([&](ReductionResult&&) { t1 = charm::now(); });
      if (hist) {
        lib.hist_sort(cb);
      } else {
        lib.merge_sort(cb);
      }
    });
    h.machine.run();
    return t1 - t0;
  };
  const double merge_growth = time_sort(32, false) / time_sort(4, false);
  const double hist_growth = time_sort(32, true) / time_sort(4, true);
  EXPECT_GT(merge_growth, hist_growth);
}

TEST(Sort, InteropAmpiProgramCallsCharmSortLibrary) {
  // The paper's CHARM pattern (§III-G): an MPI application offloads its
  // sorting phase to the Charm++ sort library through an interface function.
  const int P = 4;
  Harness h(P);
  sortlib::Library lib(h.rt);
  lib.fill_random(21, 256);

  bool sorted_during_ampi = false;
  ampi::World world(h.rt, P, [&](ampi::Comm& comm) {
    comm.charge(1e-3);  // "useful computation" of the MPI module
    comm.barrier();
    if (comm.rank() == 0) {
      // CharmLibInit-style control transfer: the rank hands control to the
      // charm module; every rank resumes when the library signals back.
      lib.hist_sort(Callback::to_function([&](ReductionResult&&) {
        sorted_during_ampi = lib.validate();
        // Wake the MPI module up again.
        ampi::Wire w;
        w.src = -1;
        w.tag = 99;
        ArrayProxy<ampi::Rank, std::int32_t> ranks(world.collection());
        for (int r = 0; r < P; ++r) ranks[r].send<&ampi::Rank::deliver>(w);
      }));
    }
    (void)comm.recv(ampi::kAnySource, 99);  // block until the charm module finishes
    comm.charge(1e-3);                      // MPI module continues
  });
  bool completed = false;
  h.rt.on_pe(0, [&] {
    world.start(Callback::to_function([&](ReductionResult&&) { completed = true; }));
  });
  h.machine.run();
  ASSERT_TRUE(completed);
  EXPECT_TRUE(sorted_during_ampi);
}

}  // namespace
