#include "taskbench/taskbench.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace charm::taskbench {

Callback Task::done_cb;
std::optional<tram::Stream<&Task::input>> Task::tram_stream;

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kStencil1D: return "stencil_1d";
    case Pattern::kFft: return "fft";
    case Pattern::kTree: return "tree";
    case Pattern::kSweep: return "sweep";
    case Pattern::kRandom: return "random";
  }
  return "?";
}

bool parse_pattern(const char* name, Pattern* out) {
  for (Pattern p : {Pattern::kStencil1D, Pattern::kFft, Pattern::kTree,
                    Pattern::kSweep, Pattern::kRandom}) {
    if (std::strcmp(name, to_string(p)) == 0) {
      *out = p;
      return true;
    }
  }
  return false;
}

namespace {

/// Butterfly stride at timestep t: distances cycle 1, 2, 4, ... 2^(L-1).
int fft_stride(int width, int t) {
  int levels = 0;
  while ((1 << levels) < width) ++levels;
  if (levels == 0) levels = 1;  // width == 1: stride 1, partner always clipped
  return 1 << ((t - 1) % levels);
}

int tree_arity(const Params& p) { return p.fanout > 1 ? p.fanout : 2; }

void sort_unique(std::vector<int>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void deps_of(const Params& p, int t, int i, std::vector<int>* out) {
  out->clear();
  if (t < 1 || t >= p.steps) return;
  const int W = p.width;
  switch (p.pattern) {
    case Pattern::kStencil1D:
      if (i > 0) out->push_back(i - 1);
      out->push_back(i);
      if (i + 1 < W) out->push_back(i + 1);
      return;
    case Pattern::kSweep:
      if (i > 0) out->push_back(i - 1);
      out->push_back(i);
      return;
    case Pattern::kFft: {
      const int j = i ^ fft_stride(W, t);
      out->push_back(i);
      if (j < W) out->push_back(j);
      sort_unique(out);
      return;
    }
    case Pattern::kTree: {
      const int k = tree_arity(p);
      out->push_back(i);
      if (t % 2 == 1) {  // up-sweep: gather from children
        for (int c = 0; c < k; ++c) {
          const long child = static_cast<long>(k) * i + 1 + c;
          if (child < W) out->push_back(static_cast<int>(child));
        }
      } else if (i > 0) {  // down-sweep: receive from parent
        out->push_back((i - 1) / k);
      }
      sort_unique(out);
      return;
    }
    case Pattern::kRandom: {
      sim::Rng rng(sim::derive_seed(p.seed, static_cast<std::uint64_t>(t),
                                    static_cast<std::uint64_t>(i)));
      out->push_back(i);
      for (int d = 1; d < p.fanout; ++d)
        out->push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(W))));
      sort_unique(out);
      return;
    }
  }
}

void dependents_of(const Params& p, int t, int i, std::vector<int>* out) {
  out->clear();
  if (t < 0 || t + 1 >= p.steps) return;
  const int W = p.width;
  switch (p.pattern) {
    case Pattern::kStencil1D:
      if (i > 0) out->push_back(i - 1);
      out->push_back(i);
      if (i + 1 < W) out->push_back(i + 1);
      return;
    case Pattern::kSweep:
      out->push_back(i);
      if (i + 1 < W) out->push_back(i + 1);
      return;
    case Pattern::kFft: {
      const int j = i ^ fft_stride(W, t + 1);  // symmetric under XOR
      out->push_back(i);
      if (j < W) out->push_back(j);
      sort_unique(out);
      return;
    }
    case Pattern::kTree: {
      const int k = tree_arity(p);
      out->push_back(i);
      if ((t + 1) % 2 == 1) {  // receivers are up-sweeping: feed my parent
        if (i > 0) out->push_back((i - 1) / k);
      } else {  // receivers are down-sweeping: feed my children
        for (int c = 0; c < k; ++c) {
          const long child = static_cast<long>(k) * i + 1 + c;
          if (child < W) out->push_back(static_cast<int>(child));
        }
      }
      sort_unique(out);
      return;
    }
    case Pattern::kRandom: {
      // No closed inverse: scan the next step's dependence lists.
      std::vector<int> deps;
      for (int j = 0; j < W; ++j) {
        deps_of(p, t + 1, j, &deps);
        if (std::binary_search(deps.begin(), deps.end(), i)) out->push_back(j);
      }
      return;
    }
  }
}

std::uint64_t task_count(const Params& p) {
  return static_cast<std::uint64_t>(p.width) * static_cast<std::uint64_t>(p.steps);
}

std::uint64_t edge_count(const Params& p) {
  const std::uint64_t W = static_cast<std::uint64_t>(p.width);
  const std::uint64_t gathering_steps =
      p.steps > 1 ? static_cast<std::uint64_t>(p.steps - 1) : 0;
  switch (p.pattern) {
    case Pattern::kStencil1D:
      return gathering_steps * (W == 1 ? 1 : 3 * W - 2);
    case Pattern::kSweep:
    case Pattern::kTree:
      // Sweep: every point has a self edge, every i>0 adds one.  Tree: on both
      // sweeps each non-root node carries exactly one parent-child edge.
      return gathering_steps * (2 * W - 1);
    case Pattern::kFft: {
      std::uint64_t total = 0;
      for (int t = 1; t < p.steps; ++t) {
        const int d = fft_stride(p.width, t);
        std::uint64_t partners = 0;
        for (int i = 0; i < p.width; ++i)
          if ((i ^ d) < p.width && (i ^ d) != i) ++partners;
        total += W + partners;
      }
      return total;
    }
    case Pattern::kRandom: {
      std::uint64_t total = 0;
      std::vector<int> deps;
      for (int t = 1; t < p.steps; ++t)
        for (int i = 0; i < p.width; ++i) {
          deps_of(p, t, i, &deps);
          total += deps.size();
        }
      return total;
    }
  }
  return 0;
}

// ---- Task ------------------------------------------------------------------

Task::Task(const Params& p, ArrayProxy<Task, std::int32_t> peers)
    : p_(p), peers_(peers) {}

void Task::begin() { run_step(); }

void Task::input(const TaskMsg& m) {
  if (!gather_.offer(m.step, m)) return;  // buffered for a later step, or stale
  if (!m.data.empty()) acc_ += m.data[0];
  ++inputs_;
  if (gather_.accept()) run_step();
}

void Task::run_step() {
  const int t = gather_.step();
  const std::int32_t me = index();
  charm::charge(p_.grain);
  ++executed_;
  gather_.close();

  if (t + 1 >= p_.steps) {
    contribute({static_cast<double>(executed_), static_cast<double>(inputs_)},
               ReduceOp::kSum, done_cb);
    return;
  }

  // Open the next gather before emitting: our own self edge is still pending,
  // so the gather cannot complete from buffered early arrivals alone.
  std::vector<int> shape;
  deps_of(p_, t + 1, me, &shape);
  gather_.open(t + 1, static_cast<int>(shape.size()),
               [&](const TaskMsg& m) { input(m); });

  TaskMsg out;
  out.step = t + 1;
  out.src = me;
  out.data.assign(static_cast<std::size_t>(p_.payload_doubles), 0.5);
  if (!out.data.empty()) out.data[0] = acc_ + static_cast<double>(me);

  dependents_of(p_, t, me, &shape);
  for (int j : shape) {
    if (p_.use_tram && tram_stream.has_value()) {
      tram_stream->send(static_cast<std::int32_t>(j), out);
    } else {
      peers_[static_cast<std::int32_t>(j)].send<&Task::input>(out);
    }
  }
}

void Task::pup(pup::Er& p) {
  ArrayElementBase::pup(p);
  p | p_;
  p | peers_;
  p | gather_;
  p | executed_;
  p | inputs_;
  p | acc_;
}

// ---- run_cell --------------------------------------------------------------

CellResult run_cell(Runtime& rt, const Params& p) {
  Registry::name_entry<&Task::input>("Task::input");
  Registry::name_entry<&Task::begin>("Task::begin");

  auto tasks = ArrayProxy<Task, std::int32_t>::create(rt);
  const int P = rt.active_pes();
  for (int i = 0; i < p.width; ++i) {
    tasks.seed(static_cast<std::int32_t>(i),
               static_cast<int>(static_cast<long>(i) * P / p.width), p, tasks);
  }
  if (p.use_tram) {
    Task::tram_stream.emplace(rt, tasks, static_cast<std::size_t>(p.tram_buffer));
  }

  struct Shared {
    bool done = false;
    double executed = 0;
    double inputs = 0;
    int flush_rounds = 0;
  };
  auto st = std::make_shared<Shared>();
  Task::done_cb = Callback::to_function([st](ReductionResult&& r) {
    st->done = true;
    st->executed = r.num(0);
    st->inputs = r.num(1);
  });

  const std::uint64_t msgs0 = rt.messages_sent();
  const std::uint64_t bytes0 = rt.bytes_sent();

  rt.on_pe(0, [&tasks] { tasks.broadcast<&Task::begin>(); });
  // The pump closure holds itself; cleared after the run to free the cycle.
  auto pump = std::make_shared<std::function<void()>>();
  if (p.use_tram) {
    // Items below the flush threshold sit in TRAM buffers without keeping the
    // machine alive, so pump: on every quiescence, flush and re-arm until the
    // finish reduction lands.  The round cap turns a stall into a clean stop.
    const int max_rounds = p.steps * 4 + 16;
    *pump = [&rt, st, pump, max_rounds] {
      rt.start_quiescence(Callback::to_function([&rt, st, pump, max_rounds](
                                                    ReductionResult&&) {
        if (st->done || st->flush_rounds >= max_rounds) return;
        ++st->flush_rounds;
        if (Task::tram_stream.has_value()) Task::tram_stream->flush_all();
        (*pump)();
      }));
    };
    (*pump)();
  }
  rt.machine().run();
  *pump = nullptr;

  CellResult r;
  r.tasks = task_count(p);
  r.edges = edge_count(p);
  r.executed = st->executed;
  r.inputs = st->inputs;
  r.msgs = rt.messages_sent() - msgs0;
  r.bytes = rt.bytes_sent() - bytes0;
  r.makespan = rt.machine().max_pe_clock();
  const int per_pe = (p.width + P - 1) / P;
  r.ideal = p.grain * static_cast<double>(p.steps) * static_cast<double>(per_pe);
  r.efficiency = r.makespan > 0 ? r.ideal / r.makespan : 0;
  r.overhead_per_task =
      r.tasks > 0 ? (r.makespan - r.ideal) * static_cast<double>(P) /
                        static_cast<double>(r.tasks)
                  : 0;
  if (p.use_tram && Task::tram_stream.has_value())
    r.tram_aggregation = Task::tram_stream->core().aggregation();

  Task::tram_stream.reset();
  Task::done_cb = Callback();
  return r;
}

}  // namespace charm::taskbench
