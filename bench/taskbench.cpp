// Task Bench overhead surface: a parameterized dependency-graph sweep over
// (pattern x grain x machine size x transport), Task Bench-style (PAPERS.md,
// arXiv 2207.12127).  Each cell runs the graph through the normal runtime
// paths and reports achieved vs ideal makespan; the derived per-task overhead
// is the CI-gated regression surface (DESIGN.md §8).
//
// Usage: taskbench [--smoke] [--pattern=NAME] [--grain=SEC] [--npes=N]
//                  [--transport=point|tram] [--stats=FILE] [--trace=FILE]
// The filter flags restrict the sweep to matching cells (0 / "" = no filter);
// --smoke shrinks graph sizes, not the sweep shape, so the gated surface
// keeps >= 4 patterns x >= 3 grains x >= 2 machine sizes in CI.

#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "taskbench/taskbench.hpp"

namespace {

using charm::taskbench::CellResult;
using charm::taskbench::Params;
using charm::taskbench::Pattern;

struct Filter {
  std::string pattern;    ///< "" = all
  std::string transport;  ///< "" = both
  double grain = 0;       ///< 0 = all
  int npes = 0;           ///< 0 = all
};

Filter& filter() {
  static Filter f;
  return f;
}

const bench::detail::FlagSpec kTaskbenchFlags[] = {
    {"--pattern", "NAME", "expects stencil_1d|fft|tree|sweep|random",
     [](const char* v) {
       Pattern p;
       if (!charm::taskbench::parse_pattern(v, &p)) return false;
       filter().pattern = v;
       return true;
     }},
    {"--transport", "KIND", "expects point|tram",
     [](const char* v) {
       if (std::strcmp(v, "point") != 0 && std::strcmp(v, "tram") != 0) return false;
       filter().transport = v;
       return true;
     }},
    {"--grain", "SEC", "needs a positive virtual-seconds grain",
     [](const char* v) { return bench::parse_positive(v, &filter().grain); }},
    {"--npes", "N", "needs a positive PE count",
     [](const char* v) { return bench::parse_positive(v, &filter().npes); }},
};

bool close_enough(double a, double b) {
  return a == b || (a > 0 && b > 0 && a / b > 0.999 && b / a > 0.999);
}

// Trace the small-P columns only ("sweep wide, trace narrow", same pattern
// as bench/scale.cpp): the per-PE usage sections of the stats JSON keep a
// dense few-PE shape, while the 64K-PE column still contributes its
// deterministic taskbench[] rows — a traced 64K-PE cell would emit ~65K
// per-PE rows (tens of MB of JSON) for a graph that occupies a few dozen.
constexpr int kMaxTracedPes = 64;

CellResult run_cell(const Params& p, int npes) {
  sim::Machine m(bench::machine_config(npes));
  if (npes <= kMaxTracedPes) bench::attach_trace(m);
  charm::Runtime rt(m);
  return charm::taskbench::run_cell(rt, p);
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv, kTaskbenchFlags,
                        sizeof(kTaskbenchFlags) / sizeof(kTaskbenchFlags[0])) != 0)
    return 1;

  const bool smoke = bench::smoke();
  // Smoke shrinks the per-cell graph, never the sweep shape: CI gates the
  // same (pattern x grain x P x transport) surface the full run covers.
  // The 64K-PE column exercises first-touch paging (DESIGN.md §12): the
  // graph occupies O(width) PEs, so the other ~65K virtual PEs must cost
  // nothing — before lazy state this column alone would dominate the sweep's
  // memory and setup time.
  const int width = smoke ? 48 : 128;
  const int steps = smoke ? 12 : 24;
  const std::vector<double> grains =
      smoke ? std::vector<double>{1e-6, 1e-5, 1e-4}
            : std::vector<double>{1e-7, 1e-6, 1e-5, 1e-4};
  const std::vector<int> pes = smoke ? std::vector<int>{4, 8, 65536}
                                     : std::vector<int>{4, 8, 16, 65536};
  const Pattern patterns[] = {Pattern::kStencil1D, Pattern::kFft, Pattern::kTree,
                              Pattern::kSweep, Pattern::kRandom};
  const char* transports[] = {"point", "tram"};

  for (Pattern pat : patterns) {
    if (!filter().pattern.empty() &&
        filter().pattern != charm::taskbench::to_string(pat))
      continue;
    bench::header("taskbench",
                  std::string("dependency-graph overhead surface, pattern ") +
                      charm::taskbench::to_string(pat));
    bench::columns({"tram", "PEs", "grain_us", "makespan_ms", "efficiency",
                    "ovhd_ns/task"});
    for (const char* transport : transports) {
      if (!filter().transport.empty() && filter().transport != transport) continue;
      for (int npes : pes) {
        if (filter().npes != 0 && filter().npes != npes) continue;
        for (double grain : grains) {
          if (filter().grain != 0 && !close_enough(filter().grain, grain)) continue;
          Params p;
          p.pattern = pat;
          p.width = width;
          p.steps = steps;
          p.grain = grain;
          p.payload_doubles = 8;
          p.fanout = 4;
          p.seed = 1;
          p.use_tram = std::strcmp(transport, "tram") == 0;
          p.tram_buffer = 8;
          const CellResult r = run_cell(p, npes);
          if (!r.complete()) {
            std::fprintf(stderr,
                         "taskbench: cell %s/%s P=%d grain=%g incomplete: "
                         "executed %g/%llu inputs %g/%llu\n",
                         charm::taskbench::to_string(pat), transport, npes, grain,
                         r.executed, static_cast<unsigned long long>(r.tasks),
                         r.inputs, static_cast<unsigned long long>(r.edges));
            return 1;
          }
          bench::row({p.use_tram ? 1.0 : 0.0, static_cast<double>(npes), grain * 1e6,
                      r.makespan * 1e3, r.efficiency, r.overhead_per_task * 1e9});
          stats::TaskbenchCell cell;
          cell.pattern = charm::taskbench::to_string(pat);
          cell.transport = transport;
          cell.npes = npes;
          cell.width = p.width;
          cell.steps = p.steps;
          cell.grain = p.grain;
          cell.payload_doubles = p.payload_doubles;
          cell.fanout = p.fanout;
          cell.seed = p.seed;
          cell.tasks = r.tasks;
          cell.edges = r.edges;
          cell.msgs = r.msgs;
          cell.bytes = r.bytes;
          cell.makespan = r.makespan;
          cell.ideal = r.ideal;
          cell.efficiency = r.efficiency;
          cell.overhead_per_task = r.overhead_per_task;
          cell.tram_aggregation = r.tram_aggregation;
          bench::taskbench_cells().push_back(std::move(cell));
        }
      }
    }
  }
  if (bench::taskbench_cells().empty()) {
    std::fprintf(stderr, "taskbench: the filters matched no sweep cells\n");
    return 1;
  }
  bench::note("overhead_per_task = (makespan - ideal) * P / tasks; ideal = grain * steps * ceil(width/P)");
  bench::note("paper-adjacent shape (Task Bench): efficiency -> 1 as grain grows; overhead exposes the runtime's per-message cost");
  return bench::finish();
}
