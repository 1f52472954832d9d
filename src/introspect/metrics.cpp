#include "introspect/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/machine.hpp"

namespace introspect {

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
}

Monitor::BusyFold Monitor::busy_fold() const {
  // Touched-only fold, averaged over the configured P: untouched PEs hold
  // busy = 0, so max and sum match the dense scan exactly.
  double mx = 0, sum = 0;
  pes_.for_each_touched([&](std::size_t, const PeCounters& pc) {
    if (pc.busy > mx) mx = pc.busy;
    sum += pc.busy;
  });
  return {mx, pes_.size() == 0 ? 0 : sum / static_cast<double>(pes_.size())};
}

void Monitor::sample_up_to(double now) {
  // Emit every boundary at or before `now`.  Boundaries are computed as
  // k·interval (not by accumulation), so timestamps carry no FP drift and a
  // long event gap yields one sample per crossed boundary with identical
  // counter values — the timeline stays strictly monotone either way.
  while (next_boundary_ <= now && samples_.size() < kSampleCap) {
    record_sample(next_boundary_);
    ++sample_k_;
    next_boundary_ = interval_ * static_cast<double>(sample_k_ + 1);
  }
  if (next_boundary_ <= now) drop_boundaries_up_to(now);
}

void Monitor::drop_boundaries_up_to(double now) {
  // The buffer is full: count the boundaries k·interval <= now in O(1)
  // instead of one by one (a tiny interval can cross ~1e10 per run).  The
  // quotient estimates the last such k; the fix-ups settle it with the same
  // multiplication the recording loop uses, so the count is exactly the one
  // that loop would reach.  Past 2^64 boundaries the counts saturate.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  auto at = [this](std::uint64_t k) { return interval_ * static_cast<double>(k); };
  const double q = std::floor(now / interval_);
  std::uint64_t last = q >= 0x1p64 ? kMax : std::max(sample_k_, static_cast<std::uint64_t>(q));
  while (last > sample_k_ && at(last) > now) --last;
  while (last < kMax && at(last + 1) <= now) ++last;
  const std::uint64_t n = last - sample_k_;
  dropped_samples_ = n > kMax - dropped_samples_ ? kMax : dropped_samples_ + n;
  sample_k_ = last;
  next_boundary_ = last < kMax ? at(last + 1) : std::numeric_limits<double>::infinity();
  start_window();
}

void Monitor::record_sample(double t) {
  Sample s;
  s.t = t;
  const BusyFold f = busy_fold();
  s.busy_max = f.max;
  s.busy_avg = f.avg;
  s.lambda = f.avg > 0 ? f.max / f.avg : 0;
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
  start_window();
}

void Monitor::start_window() {
  // Rates rebase and watermarks restart at the current instantaneous depths
  // (so hwm >= instantaneous holds at every sample).
  last_msgs_ = msgs_;
  last_bytes_ = bytes_;
  ready_hwm_w_ = cur_ready_;
  evq_hwm_w_ = last_evq_;
}

}  // namespace introspect
