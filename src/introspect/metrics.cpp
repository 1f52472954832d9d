#include "introspect/metrics.hpp"

#include <stdexcept>

#include "runtime/runtime.hpp"
#include "runtime/spanning_tree.hpp"
#include "sim/machine.hpp"

namespace introspect {

namespace {
/// Modeled payload of a summary partial: (max, sum, count) as three words.
constexpr std::size_t kSummaryPartialBytes = 24;
}  // namespace

const char* journal_kind_name(sim::Phase k) {
  switch (k) {
    case sim::Phase::kLbRound:
      return "lb_round";
    case sim::Phase::kCheckpoint:
      return "checkpoint";
    case sim::Phase::kDiskCheckpoint:
      return "disk_checkpoint";
    case sim::Phase::kRestore:
      return "restore";
    case sim::Phase::kFailure:
      return "failure";
    case sim::Phase::kShrink:
      return "shrink";
    case sim::Phase::kExpand:
      return "expand";
  }
  return "?";
}

void Monitor::attach(sim::Machine& m) {
  detach();
  reset(m.npes());
  m.attach(*this);
}

void Monitor::detach() {
  if (sim::Machine* m = observed()) m->detach(*this);
}

void Monitor::set_interval(double dt) {
  interval_ = dt > 0 ? dt : 0;
  sample_k_ = 0;
  next_boundary_ = interval_;
}

void Monitor::reset(int npes) {
  pes_.reset(static_cast<std::size_t>(npes));
  entry_loads_.clear();
  busy_ = exec_ = 0;
  execs_ = msgs_ = bytes_ = coll_msgs_ = coll_bytes_ = 0;
  last_msgs_ = last_bytes_ = 0;
  cur_ready_ = ready_hwm_w_ = 0;
  last_evq_ = evq_hwm_w_ = 0;
  last_time_ = 0;
  sample_k_ = 0;
  next_boundary_ = interval_;
  samples_.clear();
  samples_.reserve(kSampleReserve);
  dropped_samples_ = 0;
  journal_.clear();
  journal_.reserve(64);
  summary_ = SummaryWave{};
  last_summary_ = ClusterSummary{};
  summary_partials_ = 0;
}

double Monitor::imbalance() const {
  // Touched-only fold, averaged over the configured P: untouched PEs hold
  // busy = 0, so max and sum match the dense scan exactly.
  double mx = 0, sum = 0;
  pes_.for_each_touched([&](std::size_t, const PeCounters& pc) {
    if (pc.busy > mx) mx = pc.busy;
    sum += pc.busy;
  });
  const double avg =
      pes_.size() == 0 ? 0 : sum / static_cast<double>(pes_.size());
  return avg > 0 ? mx / avg : 0;
}

void Monitor::on_entry(int pe, int col, int ep, double, double dt) {
  PeCounters& pc = pes_.ref(static_cast<std::size_t>(pe));
  pc.busy += dt;
  busy_ += dt;
  // First use of a (col, ep) key allocates its map node; every later
  // invocation updates in place, keeping the steady state allocation-free.
  EntryLoad& l = entry_loads_[{col, ep}];
  ++l.calls;
  l.total += dt;
  l.ewma = l.calls == 1 ? dt : kEwmaAlpha * dt + (1.0 - kEwmaAlpha) * l.ewma;
}

void Monitor::on_phase(const sim::PhaseEvent& ev) {
  // Barrier-only LB rounds (no strategy ran) and disk checkpoints are traced
  // but not journaled.
  if (ev.kind == sim::Phase::kLbRound && ev.aux < 0) return;
  if (ev.kind == sim::Phase::kDiskCheckpoint) return;
  journal_.push_back(JournalEvent{ev.end, ev.kind, ev.aux, ev.value});
}

void Monitor::sample_up_to(double now) {
  // Emit every boundary at or before `now`.  Boundaries are computed as
  // k·interval (not by accumulation), so timestamps carry no FP drift and a
  // long event gap yields one sample per crossed boundary with identical
  // counter values — the timeline stays strictly monotone either way.
  while (next_boundary_ <= now) {
    record_sample(next_boundary_);
    ++sample_k_;
    next_boundary_ = interval_ * static_cast<double>(sample_k_ + 1);
  }
}

void Monitor::record_sample(double t) {
  if (samples_.size() >= kSampleCap) {
    ++dropped_samples_;
  } else {
    Sample s;
    s.t = t;
    double mx = 0, sum = 0;
    pes_.for_each_touched([&](std::size_t, const PeCounters& pc) {
      if (pc.busy > mx) mx = pc.busy;
      sum += pc.busy;
    });
    const double avg =
        pes_.size() == 0 ? 0 : sum / static_cast<double>(pes_.size());
    s.busy_max = mx;
    s.busy_avg = avg;
    s.lambda = avg > 0 ? mx / avg : 0;
    s.busy = busy_;
    s.exec = exec_;
    s.execs = execs_;
    s.msgs = msgs_;
    s.bytes = bytes_;
    s.coll_msgs = coll_msgs_;
    s.coll_bytes = coll_bytes_;
    s.msg_rate = static_cast<double>(msgs_ - last_msgs_) / interval_;
    s.byte_rate = static_cast<double>(bytes_ - last_bytes_) / interval_;
    s.ready = cur_ready_;
    s.ready_hwm = ready_hwm_w_;
    s.evq = last_evq_;
    s.evq_hwm = evq_hwm_w_;
    samples_.push_back(s);
  }
  // Start the next window: rates rebase, watermarks restart at the current
  // instantaneous depths (so hwm >= instantaneous holds at every sample).
  last_msgs_ = msgs_;
  last_bytes_ = bytes_;
  ready_hwm_w_ = cur_ready_;
  evq_hwm_w_ = last_evq_;
}

// ---- opt-in tree summary ----------------------------------------------------

void Monitor::request_summary(charm::Runtime& rt, SummaryFn done) {
  if (summary_.active)
    throw std::logic_error("introspect::Monitor::request_summary: wave already in flight");
  const int P = rt.active_pes();
  summary_.active = true;
  summary_.npes = P;
  summary_.arity = rt.config().tree_fanout < 2 ? 2 : rt.config().tree_fanout;
  summary_.done = std::move(done);
  summary_.max.assign(static_cast<std::size_t>(P), 0.0);
  summary_.sum.assign(static_cast<std::size_t>(P), 0.0);
  summary_.cnt.assign(static_cast<std::size_t>(P), 0);
  summary_.pending.assign(static_cast<std::size_t>(P), 0);
  const charm::SpanningTree tree(P, 0, summary_.arity);
  for (int r = 0; r < P; ++r)
    summary_.pending[static_cast<std::size_t>(r)] = tree.num_children(r);
  // Kick every leaf on its own PE; interior ranks fire when their last child
  // partial arrives.  All traffic is real counted control messages.
  charm::Runtime* prt = &rt;
  for (int r = 0; r < P; ++r) {
    if (summary_.pending[static_cast<std::size_t>(r)] == 0)
      rt.on_pe(tree.abs(r), [this, prt, r]() { summary_ready(*prt, r); });
  }
}

void Monitor::summary_ready(charm::Runtime& rt, int rank) {
  const charm::SpanningTree tree(summary_.npes, 0, summary_.arity);
  // Fold this rank's own live busy into the subtree accumulator.
  const double b = pes_.at_or_default(static_cast<std::size_t>(tree.abs(rank))).busy;
  auto& mx = summary_.max[static_cast<std::size_t>(rank)];
  if (b > mx) mx = b;
  summary_.sum[static_cast<std::size_t>(rank)] += b;
  summary_.cnt[static_cast<std::size_t>(rank)] += 1;

  if (rank == 0) {
    ClusterSummary s;
    s.t = rt.now();
    s.pes = summary_.npes;
    s.busy_max = summary_.max[0];
    s.busy_avg = summary_.cnt[0] > 0
                     ? summary_.sum[0] / static_cast<double>(summary_.cnt[0])
                     : 0;
    s.lambda = s.busy_avg > 0 ? s.busy_max / s.busy_avg : 0;
    last_summary_ = s;
    summary_.active = false;
    SummaryFn done = std::move(summary_.done);
    summary_.done = nullptr;
    if (done) done(s);
    return;
  }
  const int parent = tree.parent(rank);
  const double pm = summary_.max[static_cast<std::size_t>(rank)];
  const double ps = summary_.sum[static_cast<std::size_t>(rank)];
  const int pc = summary_.cnt[static_cast<std::size_t>(rank)];
  ++summary_partials_;
  charm::Runtime* prt = &rt;
  rt.send_control(tree.abs(parent), kSummaryPartialBytes,
                  [this, prt, parent, pm, ps, pc]() {
                    summary_arrive(*prt, parent, pm, ps, pc);
                  });
}

void Monitor::summary_arrive(charm::Runtime& rt, int rank, double mx, double sm,
                             int ct) {
  auto& acc = summary_.max[static_cast<std::size_t>(rank)];
  if (mx > acc) acc = mx;
  summary_.sum[static_cast<std::size_t>(rank)] += sm;
  summary_.cnt[static_cast<std::size_t>(rank)] += ct;
  if (--summary_.pending[static_cast<std::size_t>(rank)] == 0)
    summary_ready(rt, rank);
}

}  // namespace introspect
