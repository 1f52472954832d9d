// Fig 15b: PHOLD with and without TRAM on 8/16/32 PEs, 64 LPs per PE, 16 vs
// 256 events per LP (the paper runs 256 LPs per PE, 64 vs 1024 events per
// LP).  At low communication volume aggregation only adds latency; at high
// volume TRAM's per-message overhead amortization wins.

#include "bench_common.hpp"
#include "miniapps/pdes/pdes.hpp"

namespace {

double event_rate(int npes, int events_per_lp, bool use_tram) {
  using namespace charm;
  sim::Machine m(bench::machine_config(npes));
  bench::attach_trace(m);
  Runtime rt(m);
  pdes::Params p;
  p.nlps = npes * 64;  // scaled from the paper's 256 LPs/PE
  p.initial_events_per_lp = events_per_lp;
  p.use_tram = use_tram;
  p.tram_buffer = 64;
  pdes::Engine eng(rt, p);
  rt.on_pe(0, [&] { eng.run_until(bench::smoke() ? 0.8 : 2.5, Callback::ignore()); });
  m.run();
  return static_cast<double>(eng.total_executed()) / m.max_pe_clock();
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  // Scaled 4x from the paper (64 LPs/PE; 16 vs 256 events/LP keeps the same
  // 16x communication-volume contrast as the paper's 64 vs 1024).
  bench::header("Figure 15b", "PHOLD with/without TRAM, 64 LPs/PE");
  bench::columns({"PEs", "noTRAM 16e/LP", "TRAM 16e/LP", "noTRAM 256e/LP", "TRAM 256e/LP"});
  for (int p : bench::pe_series({8, 16, 32})) {
    bench::row({static_cast<double>(p), event_rate(p, 16, false), event_rate(p, 16, true),
                event_rate(p, 256, false), event_rate(p, 256, true)});
  }
  bench::note("paper shape: direct sends win at low event volume on small runs; TRAM wins at");
  bench::note("high volume (the paper peaks over 50M events/s with TRAM at 1024 events/LP)");
  return bench::finish();
}
