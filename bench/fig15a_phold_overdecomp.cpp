// Fig 15a: PHOLD weak scaling — event rate vs PE count (8/16/32 PEs) for
// 16/32/64 LPs per PE with 32 initial events per LP (the paper runs 64/128/256
// LPs per PE).  Over-decomposition keeps PEs busy inside each YAWNS window,
// so more LPs per PE yields a higher event rate.

#include "bench_common.hpp"
#include "miniapps/pdes/pdes.hpp"

namespace {

double event_rate(int npes, int lps_per_pe, int events_per_lp) {
  using namespace charm;
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  pdes::Params p;
  p.nlps = npes * lps_per_pe;
  p.initial_events_per_lp = events_per_lp;
  pdes::Engine eng(rt, p);
  rt.on_pe(0, [&] { eng.run_until(bench::smoke() ? 1.0 : 4.0, Callback::ignore()); });
  m.run();
  return static_cast<double>(eng.total_executed()) / m.max_pe_clock();
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  // Scaled from the paper's 64/128/256 LPs per PE at 1K-4K PEs: the same 4x
  // over-decomposition range at emulator-friendly sizes.
  bench::header("Figure 15a", "PHOLD weak scaling, 32 events/LP, varying LPs per PE");
  bench::columns({"PEs", "16 LPs/PE", "32 LPs/PE", "64 LPs/PE"});
  for (int p : bench::pe_series({8, 16, 32})) {
    bench::row({static_cast<double>(p), event_rate(p, 16, 32), event_rate(p, 32, 32),
                event_rate(p, 64, 32)});
  }
  bench::note("rates in events/second of virtual time");
  bench::note("paper shape: rate grows with PEs (weak scaling) and with LPs/PE (over-decomposition)");
  return bench::finish();
}
