#pragma once
// The emulated parallel machine: P virtual PEs with virtual clocks, a global
// deterministic event list (message arrivals and PE wake-ups, merged in one
// (time, seq) order), per-PE prioritized ready queues, and an
// alpha/beta/per-hop network model over a 3-D torus.
//
// Execution model:
//   * A *message* is an opaque handler plus a payload size and a priority.
//   * Delivery: the message departs its source when the sending handler has
//     accumulated that much virtual work, transits the network
//     (latency + bytes/bandwidth + hops * per_hop), then waits in the
//     destination PE's priority queue until the PE is free.
//   * Handlers advance their PE's clock by calling charge(seconds); charges
//     are divided by the PE's current frequency scale, which is how DVFS,
//     cloud heterogeneity, and interference enter the model.
//
// The emulator is sequential and fully deterministic (see DESIGN.md §1 for
// why this substitution preserves the paper's scaling behaviour).

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/observer.hpp"
#include "sim/paged_table.hpp"
#include "sim/ready_queue.hpp"
#include "sim/topology.hpp"

namespace trace {
class Tracer;
}

namespace sim {

class FaultInjector;

struct MachineConfig {
  int npes = 1;
  NetworkParams net{};
  int pes_per_chip = 4;  ///< grouping used by the power/thermal module
};

/// One emulated processing element.
class Pe {
 public:
  Time clock() const { return clock_; }
  /// Frequency scale: 1.0 = nominal.  Charged work is divided by this.
  double freq() const { return freq_; }
  /// Throws std::invalid_argument unless `f` is finite and positive.
  void set_freq(double f);
  /// Cumulative busy virtual time (for utilization/efficiency accounting).
  double busy_time() const { return busy_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t queue_length() const { return ready_.size(); }
  /// True while the PE is quarantined by fault injection.
  bool failed() const { return failed_; }

  /// Host bytes held by this PE's ready queue (memory accounting only).
  std::size_t ready_memory_bytes() const { return ready_.memory_bytes(); }

 private:
  friend class Machine;

  Time clock_ = 0;
  double freq_ = 1.0;
  double busy_ = 0;
  std::uint64_t executed_ = 0;
  bool exec_pending_ = false;
  bool failed_ = false;
  ReadyQueue ready_;
};
static_assert(sizeof(Pe) <= 72, "Pe is paged for every touched PE");

class Machine {
 public:
  /// Throws std::invalid_argument, before allocating anything, unless
  /// 0 < npes <= 2^24 (a wake-up key holds the PE in 24 bits), every
  /// NetworkParams time and rate is finite and non-negative, and the
  /// bandwidth is positive.
  explicit Machine(MachineConfig cfg);
  /// Unlinks every attached observer so a longer-lived one never
  /// dereferences a destroyed machine.
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int npes() const { return cfg_.npes; }
  /// Mutable PE access materializes the PE's page on first touch.
  Pe& pe(int i) { return pes_.ref(static_cast<std::size_t>(i)); }
  /// Const access never materializes: an untouched PE reads as the default
  /// state (clock 0, frequency 1.0, alive) — exactly what a dense table
  /// held before any event reached it.
  const Pe& pe(int i) const { return pes_.at_or_default(static_cast<std::size_t>(i)); }

  /// PEs whose state has materialized (first-touch census); untouched PEs
  /// cost zero bytes beyond one page pointer per 64 slots.
  std::size_t touched_pes() const { return pes_.touched(); }
  /// Visits materialized PEs in ascending order as (pe, const Pe&); untouched
  /// PEs hold default state (freq 1.0), so touched-only iteration suffices to
  /// collect every non-default speed without a dense O(P) walk.
  template <class F>
  void for_each_touched_pe(F&& f) const {
    pes_.for_each_touched(
        [&](std::size_t pe, const Pe& p) { f(static_cast<int>(pe), p); });
  }
  /// Host bytes resident in per-PE state (PE pages + ready-queue storage).
  std::size_t pe_state_bytes() const;
  /// Host bytes resident in the global event list (both heaps + slot arena;
  /// the arena also holds every message waiting in a ready queue).
  std::size_t event_queue_bytes() const { return queue_.memory_bytes(); }
  const Torus3D& topology() const { return topo_; }
  const NetworkModel& network() const { return net_; }
  const MachineConfig& config() const { return cfg_; }

  // ---- handler-context API -------------------------------------------------

  /// True while a handler is executing.
  bool in_handler() const { return ctx_.pe >= 0; }
  /// PE whose handler is currently executing (-1 outside handlers).
  int current_pe() const { return ctx_.pe; }
  /// Current virtual time: handler start + accumulated charges, or the global
  /// event time outside handlers.
  Time now() const { return in_handler() ? ctx_.start + ctx_.elapsed : time_; }

  /// Advance the executing PE's clock by `seconds` of nominal-frequency work.
  /// Throws std::invalid_argument unless `seconds` is finite and >= 0.
  void charge(double seconds);

  /// Virtual time accumulated so far by the executing handler (0 outside).
  double handler_elapsed() const { return ctx_.elapsed; }

  /// Send a message from the executing PE (or, outside a handler, inject at
  /// the current global time from `src_override`).  Lower priority values are
  /// scheduled first at the destination.  Throws std::out_of_range, before
  /// charging or queueing anything, unless 0 <= dst < npes().
  void send(int dst, std::size_t bytes, int priority, Handler fn,
            int src_override = -1);

  /// Deliver `fn` to `pe` at absolute virtual time `at` (timer/bootstrap).
  /// Throws std::out_of_range unless 0 <= pe < npes(), and
  /// std::invalid_argument unless `at` is finite; either before queueing.
  void post(int pe, Time at, Handler fn, int priority = 0);

  // ---- control ---------------------------------------------------------

  /// Process events until the queue drains or stop() is called.
  void run();
  /// Process at most one event; returns false when nothing remains.
  bool step();
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  /// Resets the stop flag so the machine can be driven again (phased runs).
  void resume() { stopped_ = false; }

  /// Global simulation time (time of the most recent event).
  Time time() const { return time_; }
  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

  /// Max over PE clocks — "makespan" of everything executed so far.
  Time max_pe_clock() const;

  // ---- fault injection -------------------------------------------------

  /// Attaches a failure schedule (nullptr detaches).  The event loop consults
  /// it before each dispatch, so injections land between handler executions
  /// at their exact virtual timestamps.
  void set_fault_injector(FaultInjector* fi) { injector_ = fi; }
  FaultInjector* fault_injector() const { return injector_; }

  bool pe_failed(int pe) const {
    const Pe* p = pes_.probe(static_cast<std::size_t>(pe));
    return p != nullptr && p->failed_;
  }
  /// Quarantines `pe` immediately: queued messages are disposed (see
  /// dispose()) and later arrivals are disposed on delivery.  Observers see
  /// one kFailure phase stamped at now().  The one way a PE fails: driven
  /// by the injector and by ft::MemCheckpointer; a no-op on a PE already
  /// failed.  Throws std::out_of_range unless 0 <= pe < npes().
  void fail_pe(int pe);
  /// Lifts the quarantine (the replacement process takes over the slot).
  /// Throws std::out_of_range unless 0 <= pe < npes().
  void revive_pe(int pe);

  /// Messages disposed at failed PEs (queued at failure or arriving later).
  std::uint64_t messages_dropped() const { return drops_; }

  // ---- observers (sim/observer.hpp) ------------------------------------

  /// Attaches `o` (detaching it from any other machine first).  Observers
  /// never charge virtual time, so results are identical with any set
  /// attached; with none attached each hook site costs one branch.
  void attach(Observer& o);
  void detach(Observer& o);
  /// Replaces the attached trace log with `t` (nullptr detaches it).
  void set_tracer(trace::Tracer* t);
  /// The first attached observer of type T, or nullptr.
  template <class T>
  T* find_observer() const {
    for (Observer* o : observers_)
      if (T* t = dynamic_cast<T*>(o)) return t;
    return nullptr;
  }

  /// Upper-layer facts (runtime, LB, FT), one call per site.
  void note_entry(int pe, int col, int ep, double dt) {
    for (Observer* o : observers_) o->on_entry(pe, col, ep, now(), dt);
  }
  void note_collective(std::size_t bytes) {
    for (Observer* o : observers_) o->on_collective(bytes);
  }
  void note_phase(const PhaseEvent& ev) {
    for (Observer* o : observers_) o->on_phase(ev);
  }

 private:
  struct ExecCtx {
    int pe = -1;
    Time start = 0;
    double elapsed = 0;
  };

  /// Throws std::out_of_range naming `where`, `pe` and npes() unless `pe`
  /// is a PE of this machine.
  void check_pe(const char* where, int pe) const;
  void schedule_exec(int pe, Time not_before);
  std::uint64_t next_seq() { return seq_++; }
  void inject_failure();
  /// Disposes the message in arena slot `id` (released here): its handler
  /// runs in a zero-cost quarantine context on `dead_pe` at now().
  void dispose(int dead_pe, EventQueue::SlotId id);

  MachineConfig cfg_;
  Torus3D topo_;
  NetworkModel net_;
  /// Attached observers; emptied while a quarantined handler runs.
  std::vector<Observer*> observers_;
  FaultInjector* injector_ = nullptr;
  PagedTable<Pe> pes_;
  EventQueue queue_;
  ExecCtx ctx_;
  Time time_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t drops_ = 0;
  bool stopped_ = false;
};

}  // namespace sim
