#pragma once
// Task Bench-style dependency-graph workload generator (after the Charm++/
// HPX Task Bench study, arXiv 2207.12127).  Where each figure bench pins one
// point in scenario space, this miniapp sweeps a whole surface: a
// `width`-point-wide, `steps`-deep task graph whose step-to-step dependence
// pattern, per-task grain (busy-work virtual seconds), fan-out, and payload
// size are all parameters.  Every cell runs through the normal runtime
// machinery — typed point sends (or a TRAM stream), a broadcast kick-off, a
// reduction finish — so per-task/per-message runtime overhead is measured on
// the real hot paths, in the fine-grain/high-fan-out regimes no paper figure
// exercises.
//
// The derived metric follows the Task Bench METG methodology: with P PEs and
// block placement, the busiest PE owns ceil(width/P) tasks per step and
// steps are dependence-ordered, so
//
//   ideal makespan = grain * steps * ceil(width / P)
//
// is a true lower bound on the achieved makespan.  The surplus, spread over
// the executed tasks, is the runtime's per-task overhead:
//
//   overhead_per_task = (makespan - ideal) * P / (width * steps)
//
// It converges to the fixed per-message cost as grain grows (efficiency
// -> 1) and exposes hot-path regressions directly when grain is small.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/charm.hpp"
#include "runtime/dep_gather.hpp"
#include "tram/tram.hpp"

namespace charm::taskbench {

/// Step-to-step dependence patterns (Task Bench's catalogue, 1-D forms).
enum class Pattern : std::uint8_t {
  kStencil1D,  ///< deps of i: {i-1, i, i+1} clipped to [0, width)
  kFft,        ///< butterfly: {i, i ^ 2^((t-1) mod ceil(log2 width))}
  kTree,       ///< k-ary tree, up-sweep on odd steps / down-sweep on even
  kSweep,      ///< wavefront: {i-1, i} clipped
  kRandom,     ///< {i} + (fanout-1) seeded uniform draws, deduplicated
};

const char* to_string(Pattern p);
/// Parses "stencil_1d", "fft", "tree", "sweep", "random"; false on no match.
bool parse_pattern(const char* name, Pattern* out);

struct Params {
  Pattern pattern = Pattern::kStencil1D;
  int width = 64;           ///< tasks per timestep
  int steps = 16;           ///< timesteps (graph depth)
  double grain = 1e-6;      ///< busy-work virtual seconds per task
  int payload_doubles = 8;  ///< doubles carried per dependence edge
  int fanout = 4;           ///< tree arity / random dependence count
  std::uint64_t seed = 1;   ///< kRandom graph seed
  bool use_tram = false;    ///< route edges through a TRAM stream
  int tram_buffer = 8;      ///< TRAM per-peer flush threshold (items)

  template <class P>
  void pup(P& p) {
    p | pattern;
    p | width;
    p | steps;
    p | grain;
    p | payload_doubles;
    p | fanout;
    p | seed;
    p | use_tram;
    p | tram_buffer;
  }
};

// ---- graph shape (closed-form mirror of what each task computes) -----------

/// Dependences of point `i` at timestep `t` (t >= 1; step 0 has none).
/// Sorted, unique; always contains i itself.
void deps_of(const Params& p, int t, int i, std::vector<int>* out);
/// Points at step t+1 that depend on point `i` executing step `t`
/// (the messages task (t, i) must send).  Sorted, unique.
void dependents_of(const Params& p, int t, int i, std::vector<int>* out);
/// Total task executions: width * steps.
std::uint64_t task_count(const Params& p);
/// Total dependence edges over steps 1..steps-1 (kRandom: by enumeration).
std::uint64_t edge_count(const Params& p);

// ---- the chare -------------------------------------------------------------

struct TaskMsg {
  std::int32_t step = 0;  ///< destination timestep
  std::int32_t src = 0;   ///< sending point
  std::vector<double> data;

  template <class P>
  void pup(P& p) {
    p | step;
    p | src;
    p | data;
  }
};

class Task : public charm::ArrayElement<Task, std::int32_t> {
 public:
  Task() = default;
  Task(const Params& p, ArrayProxy<Task, std::int32_t> peers);

  void begin();                 ///< broadcast kick-off: executes step 0
  void input(const TaskMsg& m); ///< one dependence edge arriving

  void pup(pup::Er& p) override;

  int executed() const { return executed_; }

  /// Reduction target for {executed, inputs} once every task finishes.
  static Callback done_cb;
  /// Set by run_cell while a TRAM-transport cell is in flight.
  static std::optional<tram::Stream<&Task::input>> tram_stream;

 private:
  void run_step();

  Params p_{};
  ArrayProxy<Task, std::int32_t> peers_;
  DepGather<TaskMsg> gather_;
  int executed_ = 0;
  std::uint64_t inputs_ = 0;
  double acc_ = 0;  ///< data actually flows: running sum of received payloads
};

// ---- one sweep cell --------------------------------------------------------

/// Result of one (pattern x grain x P) cell.
struct CellResult {
  std::uint64_t tasks = 0;     ///< width * steps (closed form)
  std::uint64_t edges = 0;     ///< edge_count(p) (closed form)
  double executed = 0;         ///< task executions observed by the reduction
  double inputs = 0;           ///< edge messages observed by the reduction
  std::uint64_t msgs = 0;      ///< runtime messages the cell sent
  std::uint64_t bytes = 0;     ///< runtime bytes the cell sent
  double makespan = 0;         ///< achieved virtual makespan (s)
  double ideal = 0;            ///< grain * steps * ceil(width/P) (s)
  double efficiency = 0;       ///< ideal / makespan
  double overhead_per_task = 0;///< (makespan - ideal) * P / tasks (s)
  double tram_aggregation = 0; ///< mean items per TRAM batch (0 off-TRAM)

  /// Every task executed every step and every edge arrived.
  bool complete() const {
    return executed == static_cast<double>(tasks) &&
           inputs == static_cast<double>(edges);
  }
};

/// Runs one cell to completion on a fresh Runtime (drives machine().run()).
CellResult run_cell(Runtime& rt, const Params& p);

}  // namespace charm::taskbench
