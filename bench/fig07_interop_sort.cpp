// Fig 7: CHARM interop — per-step global sorting implemented as an "MPI"
// bulk-synchronous multiway-merge sort vs. the Charm++ HistSort library,
// against the useful computation per step.
//
// The paper: at 4096 cores, the MPI sort consumed 23% of step time; after
// offloading to the Charm++ sorting library via interoperation, 2%.  We sweep
// PE counts and print the per-step time of the useful computation and of each
// sort; the expected *shape* is the merge-sort share growing with P while the
// HistSort share stays flat.

#include "bench_common.hpp"
#include "sort/sorting.hpp"

namespace {

double time_sort(int npes, bool hist, std::size_t keys_per_pe) {
  using namespace charm;
  sim::Machine m(bench::machine_config(npes, sim::NetworkParams::cray_gemini()));
  bench::attach_trace(m);
  Runtime rt(m);
  sortlib::Library lib(rt);
  lib.fill_random(1234, keys_per_pe);
  double t0 = 0, t1 = -1;
  rt.on_pe(0, [&] {
    t0 = charm::now();
    auto cb = Callback::to_function([&](ReductionResult&&) { t1 = charm::now(); });
    if (hist) {
      lib.hist_sort(cb);
    } else {
      lib.merge_sort(cb);
    }
  });
  m.run();
  bench::check(lib.validate(), "sort output globally sorted and balanced");
  return t1 - t0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  bench::header("Figure 7",
                "CHARM: useful computation vs MPI multiway-merge sort vs Charm++ HistSort");
  bench::columns({"PEs", "useful_ms", "merge_ms", "hist_ms", "merge_share%", "hist_share%"});

  const std::size_t keys_per_pe = 2048;
  // "Useful computation" per step, weak-scaled like CHARM's hydro phase.
  const double useful_s = 30e-3;

  for (int p : bench::pe_series({8, 32, 128, 512})) {
    const double merge = time_sort(p, /*hist=*/false, keys_per_pe);
    const double hist = time_sort(p, /*hist=*/true, keys_per_pe);
    bench::row({static_cast<double>(p), useful_s * 1e3, merge * 1e3, hist * 1e3,
                100.0 * merge / (useful_s + merge), 100.0 * hist / (useful_s + hist)});
  }
  bench::note("paper shape: MPI sort share grows with PEs (23% @4096), HistSort stays ~flat (2%)");
  return bench::finish();
}
