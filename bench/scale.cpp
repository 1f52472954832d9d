// Memory-scaling surface (DESIGN.md §12): first-touch per-PE state lets the
// emulator run million-virtual-PE machines whose workloads touch only a few
// PEs in megabytes, and a full 1M-PE / 4M-chare stencil in a few GiB.
//
// Two modes:
//   * sweep (default / --smoke): a fixed-width 1D periodic stencil swept
//     across machine sizes up to 1M virtual PEs.  Rows carry deterministic
//     counts only (touched PEs, events, virtual makespan, checksum), so the
//     exported series is byte-identical across hosts and CI-gated like every
//     figure surface.  Host memory (structural bytes per touched / idle PE,
//     peak RSS) is printed to stdout and deliberately kept out of the JSON.
//   * --full: the acceptance configuration — P = 1M virtual PEs, W = 4M
//     chares — run once with a memory report; CI's Release job runs it
//     under `ulimit -v` to enforce the footprint ceiling.  It exits 1 when
//     the structural footprint right after seeding covers less than
//     kMinSeededCoverage of the RSS at that point: bytes nothing counts
//     would look the same as a leak.
//
// Usage: scale [--smoke] [--full] [--stats=FILE] [--trace=FILE]

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using charm::ArrayProxy;
using charm::Callback;
using charm::ReductionResult;

struct ScaleParams {
  std::int32_t width = 0;  ///< cells around the ring
  std::int32_t steps = 0;
  double work_cost = 1e-7;  ///< charged per cell update (virtual seconds)
};

struct GhostMsg {
  std::int32_t step = 0;
  std::int32_t dir = 0;  ///< receiver-side slot: 0 = from left, 1 = from right
  double val = 0;
  void pup(pup::Er& p) {
    p | step;
    p | dir;
    p | val;
  }
};

struct KickMsg {
  void pup(pup::Er&) {}
};

}  // namespace

// 16 packed bytes, no padding: a ghost payload is a single memcpy, and the
// pooled buffer behind each in-flight ghost holds 16 bytes instead of the
// 1 KiB variable-size reservation — the difference between megabytes and
// gigabytes of transient at millions of in-flight messages.
template <>
struct pup::MemCopyable<GhostMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes =
      2 * sizeof(std::int32_t) + sizeof(double);
};

namespace {

/// One stencil cell: self-propelled ghost exchange with its ring neighbours.
/// A neighbour can run at most one step ahead (it needs our step-k ghost to
/// finish step k), so a single stash slot per direction absorbs early ghosts.
class Cell : public charm::ArrayElement<Cell, std::int32_t> {
 public:
  static ScaleParams params;   ///< one run at a time (set by the driver)
  static Callback done_cb;     ///< sum-reduction target

  void start(const KickMsg&) {
    started_ = true;
    val_ = 1e-3 * static_cast<double>(index() % 1009);
    send_ghosts();
    try_advance();
  }

  void recv_ghost(const GhostMsg& m) {
    if (m.step == step_) {
      ghost_[m.dir] = m.val;
      have_[m.dir] = true;
      try_advance();
    } else {
      // m.step == step_ + 1: the neighbour advanced first; stash for later.
      pend_val_[m.dir] = m.val;
      pend_[m.dir] = true;
    }
  }

  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | val_;
    p | step_;
    p | started_;
    for (int d = 0; d < 2; ++d) {
      p | ghost_[d];
      p | have_[d];
      p | pend_val_[d];
      p | pend_[d];
    }
  }

 private:
  void send_ghosts() {
    const std::int32_t w = params.width;
    const std::int32_t i = static_cast<std::int32_t>(index());
    ArrayProxy<Cell, std::int32_t> cells(collection_id());
    // Our value is the right neighbour's left ghost (dir 0) and vice versa.
    cells[(i + 1) % w].send<&Cell::recv_ghost>(GhostMsg{step_, 0, val_});
    cells[(i - 1 + w) % w].send<&Cell::recv_ghost>(GhostMsg{step_, 1, val_});
  }

  void try_advance() {
    while (started_ && have_[0] && have_[1]) {
      val_ = 0.25 * ghost_[0] + 0.5 * val_ + 0.25 * ghost_[1];
      charm::charge(params.work_cost);
      ++step_;
      have_[0] = have_[1] = false;
      if (step_ >= params.steps) {
        contribute(val_, charm::ReduceOp::kSum, done_cb);
        return;
      }
      send_ghosts();
      for (int d = 0; d < 2; ++d) {
        if (pend_[d]) {
          ghost_[d] = pend_val_[d];
          have_[d] = true;
          pend_[d] = false;
        }
      }
    }
  }

  double val_ = 0;
  double ghost_[2] = {0, 0};
  double pend_val_[2] = {0, 0};
  std::int32_t step_ = 0;
  bool have_[2] = {false, false};
  bool pend_[2] = {false, false};
  bool started_ = false;
};

ScaleParams Cell::params;
Callback Cell::done_cb;

struct RunResult {
  std::size_t touched_pes = 0;
  std::uint64_t events = 0;
  double makespan = 0;
  double checksum = 0;
  charm::Runtime::MemoryFootprint footprint{};
  charm::Runtime::MemoryFootprint seeded{};  ///< footprint beside seeded_rss_kb
  std::size_t peak_event_bytes = 0;
  long seeded_rss_kb = 0;  ///< RSS after element creation, before the run
};

/// Share of seeded RSS the seeded footprint must account for in --full.
constexpr double kMinSeededCoverage = 0.9;

double seeded_coverage(const RunResult& r) {
  return static_cast<double>(r.seeded.total()) /
         (static_cast<double>(r.seeded_rss_kb) * 1024.0);
}

int pe_of(std::int64_t i, std::int64_t w, std::int64_t p) {
  return static_cast<int>(i * p / w);
}

/// Kicks the hosting PE of cell `lo`: starts every cell the PE hosts, then
/// chains the kick to the next hosting PE *from inside the handler*, so the
/// next wave is posted at the sender's advanced virtual clock.  Starting all
/// W cells at t=0 instead would put 2W ghosts in flight at once — at the
/// acceptance scale that is ~8M simultaneous events (a couple of GiB of
/// transient arena/closure/payload state); chaining bounds in-flight to the
/// few waves that fit inside one network latency.
void kick_chain(charm::Runtime& rt, ArrayProxy<Cell, std::int32_t> cells,
                std::int32_t lo, std::int32_t width, int npes) {
  const int pe = pe_of(lo, width, npes);
  rt.on_pe(pe, [&rt, cells, lo, width, npes, pe]() {
    std::int32_t hi = lo + 1;
    while (hi < width && pe_of(hi, width, npes) == pe) ++hi;
    for (std::int32_t i = lo; i < hi; ++i)
      cells[i].send<&Cell::start>(KickMsg{});
    if (hi < width) kick_chain(rt, cells, hi, width, npes);
  });
}

long peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

/// Runs one (P, W, S) stencil cell of the surface and collects the counts.
RunResult run_column(int npes, std::int32_t width, std::int32_t steps,
                     bool traced) {
  sim::Machine m(bench::machine_config(npes));
  if (traced) bench::attach_trace(m);
  charm::Runtime rt(m);

  Cell::params = ScaleParams{width, steps, 1e-7};
  RunResult res;
  Cell::done_cb = Callback::to_function(
      [&res](ReductionResult&& r) { res.checksum = r.num(0); });

  auto cells = ArrayProxy<Cell, std::int32_t>::create(rt);
  for (std::int32_t i = 0; i < width; ++i)
    cells.seed(i, pe_of(i, width, npes));

  // Kick the first hosting PE; each kick handler chains to the next hosting
  // PE in virtual time (see kick_chain), so no collection-wide broadcast
  // materializes PEs that host nothing and the startup burst never puts the
  // whole ring's ghosts in flight at once.
  kick_chain(rt, cells, 0, width, npes);

  res.seeded_rss_kb = peak_rss_kb();
  res.seeded = rt.memory_footprint();
  m.run();
  res.touched_pes = m.touched_pes();
  res.events = m.events_processed();
  res.makespan = m.max_pe_clock();
  res.footprint = rt.memory_footprint();
  res.peak_event_bytes = m.event_queue_bytes();
  return res;
}

void print_memory(const char* tag, const RunResult& r) {
  // Host-dependent numbers: stdout only, never the stats JSON (the exported
  // series must stay byte-identical across hosts and allocators).
  const auto& f = r.footprint;
  const double per_touched =
      r.touched_pes ? static_cast<double>(f.total()) /
                          static_cast<double>(r.touched_pes)
                    : 0;
  std::printf(
      "   [mem %s] touched=%zu structural=%zu B (pe=%zu coll=%zu elem=%zu "
      "evq=%zu pool=%zu) bytes/touched_pe=%.0f seeded_structural=%zu B "
      "seeded_rss=%ld KiB coverage=%.3f peak_rss=%ld KiB\n",
      tag, r.touched_pes, f.total(), f.pe_state_bytes, f.collection_bytes,
      f.element_bytes, f.event_queue_bytes, f.payload_pool_bytes, per_touched,
      r.seeded.total(), r.seeded_rss_kb, seeded_coverage(r), peak_rss_kb());
}

bool g_full = false;
int g_npes = 1 << 20;
std::int32_t g_width = 4 << 20;
std::int32_t g_steps = 3;

const bench::detail::FlagSpec kScaleFlags[] = {
    {"--full", nullptr, nullptr,
     [](const char*) {
       g_full = true;
       return true;
     }},
    {"--npes", "N", "needs a positive PE count",
     [](const char* v) { return bench::parse_positive(v, &g_npes); }},
    {"--width", "W", "needs a positive cell count",
     [](const char* v) { return bench::parse_positive(v, &g_width); }},
    {"--steps", "S", "needs a positive step count",
     [](const char* v) { return bench::parse_positive(v, &g_steps); }},
};

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv, kScaleFlags,
                        sizeof(kScaleFlags) / sizeof(kScaleFlags[0])) != 0)
    return 1;

  if (g_full) {
    // Acceptance configuration (default): 1M virtual PEs, 4M chares,
    // footprint-gated by CI's Release job under ulimit -v.
    const int npes = g_npes;
    const std::int32_t width = g_width;
    const std::int32_t steps = g_steps;
    std::printf("== scale --full: P=%d W=%d S=%d ==\n", npes, width, steps);
    const RunResult r = run_column(npes, width, steps, /*traced=*/false);
    print_memory("full", r);
    std::printf("   touched=%zu events=%llu makespan=%.6g ms checksum=%.17g\n",
                r.touched_pes, static_cast<unsigned long long>(r.events),
                r.makespan * 1e3, r.checksum);
    if (r.touched_pes != static_cast<std::size_t>(npes)) {
      std::fprintf(stderr, "scale: expected all %d PEs touched, got %zu\n",
                   npes, r.touched_pes);
      return 1;
    }
    if (seeded_coverage(r) < kMinSeededCoverage) {
      std::fprintf(stderr,
                   "scale: seeded footprint %zu B covers %.3f of seeded RSS "
                   "%ld KiB, below %.2f\n",
                   r.seeded.total(), seeded_coverage(r), r.seeded_rss_kb,
                   kMinSeededCoverage);
      return 1;
    }
    return 0;
  }

  // Overhead-vs-P surface: a fixed stencil swept across machine sizes.  The
  // workload is P-independent above P >= W, so the 64K and 1M columns cost
  // the same events as the small ones — only paging makes them cheap to host.
  const std::int32_t width = bench::smoke() ? 256 : 4096;
  const std::int32_t steps = bench::smoke() ? 4 : 8;
  const std::vector<int> pes = {256, 4096, 65536, 1 << 20};

  bench::header("scale", "first-touch memory scaling, 1D stencil overhead vs P");
  bench::columns({"PEs", "width", "steps", "touched_pes", "events",
                  "makespan_ms", "checksum"});
  for (int npes : pes) {
    const RunResult r = run_column(npes, width, steps, /*traced=*/false);
    bench::row({static_cast<double>(npes), static_cast<double>(width),
                static_cast<double>(steps), static_cast<double>(r.touched_pes),
                static_cast<double>(r.events), r.makespan * 1e3, r.checksum});
    print_memory("sweep", r);
  }
  bench::note("touched_pes stays O(width) as P grows: untouched virtual PEs cost zero bytes");
  bench::note("rows are deterministic counts only; host memory is reported on stdout");

  // A small traced column supplies the per-PE usage rows of the stats JSON
  // (same pattern as taskbench: sweep wide, trace narrow).
  {
    const RunResult r = run_column(8, 64, 4, /*traced=*/true);
    std::printf("   traced column: P=8 width=64 events=%llu checksum=%.17g\n",
                static_cast<unsigned long long>(r.events), r.checksum);
  }
  return bench::finish();
}
