#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sim/fault_injector.hpp"
#include "trace/trace.hpp"

namespace sim {

namespace {

/// Returns `cfg` when the machine can order every time it derives from it;
/// throws std::invalid_argument otherwise.  Runs before any member is built.
const MachineConfig& validated(const MachineConfig& cfg) {
  if (cfg.npes <= 0) throw std::invalid_argument("Machine: npes must be positive");
  // A wake-up key holds the PE in its id bits.
  if (static_cast<std::uint64_t>(cfg.npes) > EventQueue::kMaxPes)
    throw std::invalid_argument("Machine: npes must be at most 2^24");
  const NetworkParams& n = cfg.net;
  for (const double v : {n.alpha_send, n.alpha_recv, n.latency, n.bandwidth, n.per_hop}) {
    if (!std::isfinite(v) || v < 0)
      throw std::invalid_argument("Machine: network parameters must be finite and non-negative");
  }
  if (!(n.bandwidth > 0))
    throw std::invalid_argument("Machine: network bandwidth must be positive");
  return cfg;
}

}  // namespace

void Pe::set_freq(double f) {
  if (!std::isfinite(f) || !(f > 0))
    throw std::invalid_argument("sim::Pe::set_freq: frequency must be finite and positive");
  freq_ = f;
}

Machine::Machine(MachineConfig cfg)
    : cfg_(validated(cfg)), topo_(cfg.npes), net_(cfg.net, topo_) {
  pes_.reset(static_cast<std::size_t>(cfg.npes));
}

Machine::~Machine() {
  for (Observer* o : observers_) o->machine_ = nullptr;
}

Observer::~Observer() {
  if (machine_ != nullptr) machine_->detach(*this);
}

void Machine::attach(Observer& o) {
  if (o.machine_ == this) return;
  if (o.machine_ != nullptr) o.machine_->detach(o);
  o.machine_ = this;
  observers_.push_back(&o);
}

void Machine::detach(Observer& o) {
  if (o.machine_ != this) return;
  o.machine_ = nullptr;
  std::erase(observers_, &o);
}

void Machine::set_tracer(trace::Tracer* t) {
  if (trace::Tracer* cur = find_observer<trace::Tracer>()) detach(*cur);
  if (t != nullptr) attach(*t);
}

void Machine::charge(double seconds) {
  if (!in_handler()) throw std::logic_error("sim::Machine::charge outside handler");
  if (!std::isfinite(seconds) || seconds < 0)
    throw std::invalid_argument("sim::Machine::charge: work must be finite and non-negative");
  ctx_.elapsed += seconds / pes_.ref(static_cast<std::size_t>(ctx_.pe)).freq_;
}

void Machine::check_pe(const char* where, int pe) const {
  if (pe < 0 || pe >= cfg_.npes) {
    throw std::out_of_range(std::string(where) + ": PE " + std::to_string(pe) +
                            " is outside [0, npes = " + std::to_string(cfg_.npes) + ")");
  }
}

void Machine::send(int dst, std::size_t bytes, int priority, Handler fn,
                   int src_override) {
  check_pe("sim::Machine::send", dst);
  Time depart;
  int src;
  if (in_handler()) {
    src = ctx_.pe;
    // Sender-side CPU overhead is charged to the executing handler, so the
    // departure time reflects everything the handler did before this send.
    charge(net_.params().alpha_send);
    depart = ctx_.start + ctx_.elapsed;
  } else {
    src = src_override >= 0 ? src_override : dst;
    depart = time_;
  }
  const Time at = depart + net_.transit_time(src, dst, bytes);
  queue_.emplace(at, next_seq(), dst, priority, bytes).fn = std::move(fn);
  if (!observers_.empty()) {
    const int hops = net_.hops(src, dst);
    for (Observer* o : observers_) o->on_send(src, dst, bytes, hops, depart, at);
  }
}

void Machine::post(int pe, Time at, Handler fn, int priority) {
  check_pe("sim::Machine::post", pe);
  if (!std::isfinite(at)) throw std::invalid_argument("sim::Machine::post: time must be finite");
  queue_.emplace(std::max(at, time_), next_seq(), pe, priority, 0).fn = std::move(fn);
}

void Machine::schedule_exec(int pe_id, Time not_before) {
  Pe& p = pes_.ref(static_cast<std::size_t>(pe_id));
  if (p.exec_pending_) return;
  p.exec_pending_ = true;
  queue_.wake(std::max(not_before, p.clock_), next_seq(), pe_id);
}

bool Machine::step() {
  if (stopped_ || queue_.empty()) return false;
  // Injected failures due at or before the next event fire first, between
  // handler executions, at their exact virtual timestamps.  Failures that
  // would land after the last event never fire (the run is over).
  while (injector_ != nullptr && injector_->armed() &&
         injector_->next_time() <= queue_.next_time()) {
    inject_failure();
    if (stopped_ || queue_.empty()) return false;
  }
  // Pop the next event: a PE wake-up, or an arrival whose message stays in
  // its arena slot.
  const EventQueue::Next next = queue_.pop();
  const Time at = next.time;
  const int pe = next.wakeup ? static_cast<int>(next.id) : queue_.slot(next.id).pe;
  time_ = std::max(time_, at);
  ++events_processed_;
  // First-touch point for a PE reached by a send/post: materialize its page.
  Pe& p = pes_.ref(static_cast<std::size_t>(pe));

  if (!next.wakeup) {
    const EventQueue::SlotId id = next.id;
    if (p.failed_) {
      // In-flight message reaches a quarantined PE: dispose of it.
      dispose(pe, id);
      for (Observer* o : observers_) o->on_step(time_, queue_.size());
      return true;
    }
    // The message stays in its slot; the PE queues only the slot id.
    p.ready_.push(queue_, id);
    schedule_exec(pe, at);
    for (Observer* o : observers_) {
      o->on_ready(pe, p.ready_.size());
      o->on_step(time_, queue_.size());
    }
    return true;
  }

  // Wake-up: run the best-priority pending message to completion.
  p.exec_pending_ = false;
  if (p.ready_.empty()) {  // spurious (fail_pe drained the queue)
    for (Observer* o : observers_) o->on_step(time_, queue_.size());
    return true;
  }
  const EventQueue::SlotId msg_id = p.ready_.pop(queue_);
  Event& msg = queue_.slot(msg_id);
  const std::size_t bytes = msg.bytes;

  for (Observer* o : observers_)
    o->on_exec_begin(pe, p.clock_, at, msg.time, msg.priority, bytes);

  ctx_ = ExecCtx{pe, at, 0.0};
  // Receiver-side scheduling overhead for every delivery.
  ctx_.elapsed += net_.params().alpha_recv / p.freq_;
  // Invoked in place: the slot stays live (and its address stable) while
  // the handler sends, and is recycled only once the handler has returned.
  msg.fn();
  queue_.release(msg_id);
  p.clock_ = at + ctx_.elapsed;
  p.busy_ += ctx_.elapsed;
  ++p.executed_;
  ctx_ = ExecCtx{};

  if (!p.ready_.empty()) schedule_exec(pe, p.clock_);
  for (Observer* o : observers_) {
    o->on_exec_end(pe, at, p.clock_, bytes, p.ready_.size());
    o->on_step(time_, queue_.size());
  }
  return true;
}

void Machine::run() {
  while (step()) {
  }
}

// ---- fault injection --------------------------------------------------------

void Machine::inject_failure() {
  const Time t = std::max(injector_->next_time(), time_);
  const int victim = injector_->choose_victim(*this);
  if (victim < 0) {  // nothing left to kill
    injector_->skip();
    return;
  }
  time_ = t;
  fail_pe(victim);
  injector_->committed(FaultRecord{.time = t, .pe = victim});
}

void Machine::fail_pe(int pe_id) {
  check_pe("sim::Machine::fail_pe", pe_id);
  // ref(), not probe(): failing a never-touched PE must materialize it so the
  // quarantine flag persists for later arrivals.
  Pe& p = pes_.ref(static_cast<std::size_t>(pe_id));
  if (p.failed_) return;
  p.failed_ = true;
  // Dispose queued messages in deterministic (priority, arrival, seq) order.
  while (!p.ready_.empty()) dispose(pe_id, p.ready_.pop(queue_));
  // Outside a handler now() is time_, so an injected failure is stamped at
  // its injection time; a failure raised inside a handler at the handler's
  // current time.
  const Time t = now();
  for (Observer* o : observers_) {
    o->on_ready(pe_id, 0);
    o->on_phase(PhaseEvent{Phase::kFailure, pe_id, t, t, pe_id, 0.0});
  }
}

void Machine::revive_pe(int pe_id) {
  check_pe("sim::Machine::revive_pe", pe_id);
  // Only a materialized PE can be in quarantine; probe avoids resurrecting
  // pages for PEs that were never failed in the first place.
  Pe* p = pes_.probe(static_cast<std::size_t>(pe_id));
  if (p != nullptr) p->failed_ = false;
}

void Machine::dispose(int dead_pe, EventQueue::SlotId id) {
  Event& msg = queue_.slot(id);
  Handler fn = std::move(msg.fn);
  queue_.release(id);
  // The handler still runs, in a zero-cost quarantine context on the dead
  // PE, so upper-layer message accounting (quiescence counting) stays
  // balanced.  Charged work is discarded; no clock advances.  Upper layers
  // see pe_failed() and suppress application effects.
  //
  // Every observer is muted for the quarantined execution: nothing it does
  // is real work (its charges are discarded and its sends carry no
  // application effect), so reporting it would make traces, stats and live
  // counters overcount busy/exec time and traffic on dead PEs.  Only the
  // reporting stops; the handler runs identically, so the simulation stays
  // bit-identical with observers on or off.
  //
  // The context starts at now(), not time(): a failure raised inside a
  // handler is later than time(), and a disposed handler's sends must not
  // depart before it.
  ++drops_;
  const ExecCtx saved = ctx_;
  ctx_ = ExecCtx{dead_pe, now(), 0.0};
  std::vector<Observer*> muted;
  muted.swap(observers_);
  fn();
  observers_.swap(muted);
  ctx_ = saved;
}

Time Machine::max_pe_clock() const {
  // Untouched PEs sit at clock 0, so folding over touched slots is exact.
  Time t = 0;
  pes_.for_each_touched([&t](std::size_t, const Pe& p) { t = std::max(t, p.clock_); });
  return t;
}

std::size_t Machine::pe_state_bytes() const {
  std::size_t bytes = pes_.memory_bytes();
  pes_.for_each_touched(
      [&bytes](std::size_t, const Pe& p) { bytes += p.ready_memory_bytes(); });
  return bytes;
}

}  // namespace sim
