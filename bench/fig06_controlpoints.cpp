// Fig 6: the introspective control system tunes the number of pipeline
// messages in a ping benchmark until performance stabilizes.
//
// Two chares ping a large buffer back and forth; the buffer is split into k
// pipeline messages (a registered control point).  Few pipeline stages mean
// no overlap between transmission and the receiver's per-chunk processing;
// many stages drown in per-message overhead.  The tuner probes values of k,
// watching per-step time, and settles near the optimum.  We print the
// (step, k, time) trajectory the paper plots.

#include "bench_common.hpp"
#include "tuning/control_point.hpp"

namespace {

using namespace charm;

struct ChunkMsg {
  int step = 0;
  int chunk = 0;
  int nchunks = 0;
  std::vector<std::byte> data;
  void pup(pup::Er& p) {
    p | step;
    p | chunk;
    p | nchunks;
    p | data;
  }
};

constexpr std::size_t kBufferBytes = 1 << 20;
constexpr double kPerChunkWork = 60e-6;  // receiver-side processing per full buffer

class Pinger : public charm::ArrayElement<Pinger, std::int32_t> {
 public:
  int received = 0;
  static Callback step_done;

  void recv(const ChunkMsg& m) {
    // Process this chunk (work proportional to chunk size => overlappable).
    charm::charge(kPerChunkWork / m.nchunks);
    if (++received == m.nchunks) {
      received = 0;
      step_done.invoke(charm::Runtime::current(), charm::ReductionResult{});
    }
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | received;
  }
};

Callback Pinger::step_done;

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv) != 0) return 1;
  using namespace charm;
  bench::header("Figure 6", "tuning pipeline message count in a ping benchmark");
  bench::columns({"step", "pipeline_k", "step_ms"});

  sim::Machine m(bench::machine_config(2));
  bench::attach_trace(m);
  Runtime rt(m);
  auto arr = ArrayProxy<Pinger>::create(rt);
  arr.seed(0, 0);
  arr.seed(1, 1);

  tuning::ControlPoint cp("pipeline_num", 1, 256, 2);
  tuning::Tuner tuner(cp);

  const int total_steps = bench::cap_steps(60, 8);
  int step = 0;
  double step_start = 0;

  std::function<void()> do_step = [&]() {
    step_start = rt.now();
    const int k = cp.value();
    ChunkMsg msg;
    msg.step = step;
    msg.nchunks = k;
    for (int c = 0; c < k; ++c) {
      msg.chunk = c;
      msg.data.assign(kBufferBytes / static_cast<std::size_t>(k), std::byte{0});
      arr[1].send<&Pinger::recv>(msg);
    }
  };

  Pinger::step_done = Callback::to_function([&](ReductionResult&&) {
    const double ms = (rt.now() - step_start) * 1e3;
    bench::row({static_cast<double>(step), static_cast<double>(cp.value()), ms});
    tuner.report(ms);
    if (++step < total_steps) {
      do_step();
    } else {
      rt.exit();
    }
  });

  rt.on_pe(0, [&] { do_step(); });
  m.run();

  std::printf("   tuner converged=%d best_k=%d best_step_ms=%.4f probes=%d\n",
              tuner.converged() ? 1 : 0, tuner.best_value(), tuner.best_metric(),
              tuner.probes());
  bench::note("paper shape: step time oscillates during probing, then stabilizes at the optimum");
  return bench::finish();
}
