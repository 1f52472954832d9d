#pragma once
// Deterministic fault injection for the emulated machine.
//
// A FaultInjector owns a seeded schedule of PE-failure events.  The Machine
// event loop consults it before dispatching each event, so failures land
// *between* handler executions at exact virtual timestamps — never mid-entry.
// Three schedule modes:
//
//   * kFixed   — an explicit list of (time, victim) pairs; victim -1 means
//                "pick a live PE with the seeded RNG".
//   * kMtbf    — Poisson process: exponential inter-failure gaps with the
//                configured mean (MTBF), seeded victim selection.
//   * kNemesis — adversarial timing: failures can be armed by runtime phase
//                hooks (checkpoint begin, LB-step begin) so they strike
//                mid-protocol, and the victim is the *busiest* live PE
//                (longest ready queue, then most accumulated work).  An
//                optional MTBF stream runs underneath the hooks.
//
// On injection the Machine quarantines the victim (Machine::fail_pe, the
// same call a manual ft::MemCheckpointer::fail_and_recover makes): its
// queued messages and every later arrival are disposed of, each handler
// running in a zero-cost quarantine context so upper-layer accounting
// (quiescence counting) still balances.  Each failure appends a FaultRecord
// (when and whom) to a log whose canonical text form is byte-identical
// across runs with the same seed.  Observers see each failure as its one
// kFailure phase fact, and the messages it disposed count only in
// Machine::messages_dropped().
//
// The injector is pure sim-layer machinery: recovery is the business of
// whoever registers the failure listener (ft::MemCheckpointer in practice).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace sim {

class Machine;

enum class FaultMode : std::uint8_t { kOff, kFixed, kMtbf, kNemesis };

struct FaultConfig {
  FaultMode mode = FaultMode::kOff;
  /// kFixed: explicit (virtual time, victim PE) schedule; victim -1 = random.
  std::vector<std::pair<Time, int>> fixed;
  /// kMtbf / kNemesis: mean virtual seconds between failures (0 = hooks only).
  double mtbf = 0;
  std::uint64_t seed = 1;
  /// Total failures this injector may fire (schedule + armed hooks).
  int max_failures = 1;
  /// No failure fires before this virtual time (lets the application commit
  /// a first checkpoint so every run is recoverable).
  Time start_after = 0;
  /// Minimum gap between consecutive failures (recovery headroom).
  Time min_gap = 0;
  /// kNemesis: arm a failure when these runtime phases begin.
  bool strike_mid_checkpoint = false;
  bool strike_mid_lb = false;
  /// kNemesis: delay from phase begin to the armed failure.
  Time strike_delay = 1e-6;
};

struct FaultRecord {
  int ordinal = 0;  ///< 0-based injection index
  Time time = 0;    ///< exact virtual injection timestamp
  int pe = -1;      ///< victim
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig cfg) { configure(std::move(cfg)); }

  /// Installs a schedule and resets all derived state (log, RNG, arming).
  void configure(FaultConfig cfg);
  const FaultConfig& config() const { return cfg_; }

  /// Called synchronously at each injection, after the machine has
  /// quarantined the victim.  Runs outside any handler context.
  void set_listener(std::function<void(const FaultRecord&)> fn) {
    listener_ = std::move(fn);
  }

  /// One-shot: schedule a failure at absolute virtual time `t` (tests,
  /// adversarial drivers).  Overrides nothing; fires whichever of the armed
  /// and scheduled failures comes first.  Counts toward max_failures.
  void arm(Time t, int victim = -1);

  // ---- nemesis phase hooks (called by ft/lb when a protocol phase begins) --
  void notify_checkpoint_begin(Time now);
  void notify_lb_begin(Time now);

  // ---- machine interface ---------------------------------------------------
  /// True when a failure is scheduled and the budget is not exhausted.
  bool armed() const;
  /// Virtual time of the next failure (meaningless unless armed()).
  Time next_time() const;
  /// Deterministically selects the victim for the failure at next_time().
  /// Returns -1 when no live PE remains (the failure is then skipped).
  int choose_victim(const Machine& m);
  /// Consumes the pending failure without firing it (no live victim).
  void skip();
  /// Commits a fired failure: appends to the log, advances the schedule,
  /// then invokes the listener.
  void committed(const FaultRecord& rec);

  // ---- results -------------------------------------------------------------
  const std::vector<FaultRecord>& log() const { return log_; }
  int failures_injected() const { return static_cast<int>(log_.size()); }
  /// Canonical text form of the log ("#k t=T pe=P" per failure);
  /// byte-identical across same-seed runs.
  std::string format_log() const;

 private:
  void schedule_next(Time after);

  FaultConfig cfg_{};
  Rng rng_{1};
  std::function<void(const FaultRecord&)> listener_;
  std::size_t fixed_cursor_ = 0;
  bool scheduled_ = false;   ///< schedule stream has a pending time
  Time scheduled_time_ = 0;
  int scheduled_victim_ = -1;
  bool armed_oneshot_ = false;
  Time armed_time_ = 0;
  int armed_victim_ = -1;
  int budget_used_ = 0;      ///< fired + skipped failures
  std::vector<FaultRecord> log_;
};

}  // namespace sim
