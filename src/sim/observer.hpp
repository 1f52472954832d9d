#pragma once
// One observer vocabulary for the emulated machine (DESIGN.md §5b).  Every
// fact the machine and the layers above it report (a send, an arrival, a
// handler execution, an entry-method span, a collective leg, a runtime
// phase, the end of an event-loop step) is one hook call made once at its
// site.  trace::Tracer (the Projections-style event log) and
// introspect::Monitor (the sampled metrics timeline plus the decision
// journal) are two sinks of it, and neither filters: every phase fact
// reaches both under the one name sim::phase_name gives it.
//
// Hooks never charge virtual time, so attaching any set of observers leaves
// every virtual clock bit-identical.  With nothing attached each hook site
// costs one branch.

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hpp"

namespace sim {

class Machine;

/// Runtime phases and decisions on the virtual timeline.  Each one has a
/// single wire name, kPhaseNames[kind]: the trace span, the stats `phases`
/// segment and the metrics journal row all print it.
enum class Phase : std::uint8_t {
  kLbRound,         ///< AtSync LB round; aux = migrations (-1: barrier only), value = cost (s)
  kCheckpoint,      ///< in-memory double checkpoint committed; value = bytes
  kDiskCheckpoint,  ///< checkpoint_to_file completed
  kRestore,         ///< rollback completed; aux = victims, value = recovery time (s)
  kFailure,         ///< a PE failed (Machine::fail_pe, any cause); aux = victim PE
  kShrink,          ///< malleability reconfiguration down; aux = target PEs, value = old
  kExpand,          ///< malleability reconfiguration up; aux = target PEs, value = old
};

/// Wire name of every Phase, in enumerator order.
inline constexpr std::array<const char*, 7> kPhaseNames = {
    "lb_step", "checkpoint", "disk_checkpoint", "restore", "failure", "shrink", "expand"};
static_assert(kPhaseNames.size() == static_cast<std::size_t>(Phase::kExpand) + 1);

constexpr const char* phase_name(Phase p) { return kPhaseNames[static_cast<std::size_t>(p)]; }

/// One phase span or decision.  `end` doubles as the journal timestamp.
struct PhaseEvent {
  Phase kind{};
  int pe = 0;  ///< PE the span is drawn on (the victim for failures)
  Time begin = 0;
  Time end = 0;
  int aux = -1;
  double value = 0;
};

/// Base of every machine observer; all hooks default to no-ops.  An observer
/// watches at most one machine: attaching it elsewhere detaches it first, and
/// whichever of the two is destroyed first unlinks the other.
class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer();

  /// The machine this observer is attached to (nullptr when detached).
  Machine* observed() const { return machine_; }

  /// A message left `src` at `depart` and reaches `dst`'s ready queue at
  /// `arrive` after crossing `hops` torus links.
  virtual void on_send(int /*src*/, int /*dst*/, std::size_t /*bytes*/, int /*hops*/,
                       Time /*depart*/, Time /*arrive*/) {}
  /// `pe`'s ready queue now holds `depth` messages (after an arrival, or
  /// emptied by a quarantine).
  virtual void on_ready(int /*pe*/, std::size_t /*depth*/) {}
  /// `pe`, idle since `idle_since`, starts serving at `start` a message of
  /// `bytes` at `priority` that arrived at `arrival`.
  virtual void on_exec_begin(int /*pe*/, Time /*idle_since*/, Time /*start*/,
                             Time /*arrival*/, int /*priority*/, std::size_t /*bytes*/) {}
  /// `pe` finished serving that message (span [begin, end)); `depth`
  /// messages remain queued.
  virtual void on_exec_end(int /*pe*/, Time /*begin*/, Time /*end*/, std::size_t /*bytes*/,
                           std::size_t /*depth*/) {}
  /// Entry method `ep` of collection `col` (ep -1: an LB resume
  /// delivery) ran on `pe` for `dt` of virtual work ending at `end`.
  virtual void on_entry(int /*pe*/, int /*col*/, int /*ep*/, Time /*end*/, double /*dt*/) {}
  /// A collective leg (broadcast or reduction partial) of `bytes` was sent.
  virtual void on_collective(std::size_t /*bytes*/) {}
  virtual void on_phase(const PhaseEvent& /*ev*/) {}
  /// End of one event-loop step at global time `now` with `evq_depth`
  /// events still pending.
  virtual void on_step(Time /*now*/, std::size_t /*evq_depth*/) {}

 private:
  friend class Machine;
  Machine* machine_ = nullptr;
};

}  // namespace sim
