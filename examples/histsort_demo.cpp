// Sorting library demo: the asynchronous histogram sort vs the synchronous
// multiway-merge baseline on the same data, with validation.

#include <cstdio>

#include "sort/sorting.hpp"

using namespace charm;

namespace {

/// Sorts and validates; `all_sorted` turns false when the sort did not
/// finish or its output is not globally sorted.
double run_sort(bool hist, int npes, std::size_t keys_per_pe, bool& all_sorted) {
  sim::MachineConfig cfg;
  cfg.npes = npes;
  sim::Machine machine(cfg);
  Runtime rt(machine);
  sortlib::Library lib(rt);
  lib.fill_random(7, keys_per_pe);
  double t0 = 0, t1 = -1;
  rt.on_pe(0, [&] {
    t0 = charm::now();
    auto cb = Callback::to_function([&](ReductionResult&&) {
      t1 = charm::now();
      rt.exit();
    });
    if (hist) {
      lib.hist_sort(cb);
    } else {
      lib.merge_sort(cb);
    }
  });
  machine.run();
  const bool sorted = t1 >= t0 && lib.validate();
  all_sorted = all_sorted && sorted;
  std::printf("%-10s P=%3d keys=%7llu sorted=%s  time=%8.3f ms\n",
              hist ? "histsort" : "mergesort", npes,
              static_cast<unsigned long long>(lib.total_keys()), sorted ? "yes" : "NO!",
              (t1 - t0) * 1e3);
  return t1 - t0;
}

}  // namespace

int main() {
  std::printf("async histogram sort vs bulk-synchronous merge sort (root bottleneck):\n");
  bool all_sorted = true;
  for (int p : {4, 16, 64, 256}) {
    const double merge = run_sort(false, p, 2048, all_sorted);
    const double hist = run_sort(true, p, 2048, all_sorted);
    std::printf("           -> at P=%d, histsort is %.2fx faster\n", p, merge / hist);
  }
  return all_sorted ? 0 : 1;
}
