#pragma once
// DepGather: the step-tagged dependence counter every graph-structured
// workload re-implements by hand.  An element executing a sequence of steps
// expects a known number of input messages per step; because the runtime
// delivers asynchronously, a fast neighbor can send step-t+1 inputs while the
// receiver is still gathering step t (or parked between steps).  DepGather
// centralizes the bookkeeping the stencil mini-app pioneered:
//
//   * arrivals for the currently open step are counted toward completion,
//   * arrivals for future steps are buffered and replayed when that step
//     opens,
//   * arrivals for past steps (duplicates of an already-finished gather) are
//     dropped,
//   * the whole state is puppable, so gathering elements stay migratable.
//
// Usage (one gather per element; Msg is the caller's message type):
//
//   void Elem::arrive(const Msg& m) {
//     if (!gather_.offer(m.step, m)) return;   // buffered or stale
//     incorporate(m);
//     if (gather_.accept()) run_step();
//   }
//   void Elem::run_step() {
//     ... step body, sends ...
//     gather_.close();                          // step done, advance
//     if (gather_.open(next, expected, [&](const Msg& m) { arrive(m); }))
//       run_step();                             // nothing to wait for
//   }
//
// open() replays buffered messages through the caller's own arrival handler,
// so a step whose inputs all arrived early completes (and may close/open the
// next step) from inside the replay loop; open() detects that reentrant
// advance and returns false so the caller does not run the step body twice.
//
// Users: the stencil mini-app (ghost rows), taskbench (graph dependences) and
// AMR (per-block face ghosts; a refined child starts at its parent's step).
// LeanMD's Cell is not one: it runs two gathers (forces, then atom
// transfers) on one step counter, and two DepGathers would pack 3 more bytes
// per Cell, which moves every LeanMD migration and checkpoint size.

#include <map>
#include <utility>
#include <vector>

#include "pup/pup.hpp"

namespace charm {

template <class Msg>
class DepGather {
 public:
  DepGather() = default;
  /// Starts closed at `step` (an element created mid-run).
  explicit DepGather(int step) : step_(step) {}

  /// The step currently gathering (or, after close(), the next one).
  int step() const { return step_; }
  /// A gather is open and still waiting for arrivals.
  bool gathering() const { return expected_ > 0; }

  /// Opens the gather for `step`, expecting `expected` arrivals.  Buffered
  /// messages for older steps are pruned; buffered messages for `step` are
  /// replayed through `deliver` (the caller's arrival handler, so they are
  /// counted exactly like live arrivals).  Returns true when the caller
  /// should run the step body directly: nothing was expected and no
  /// reentrant close() advanced the gather during replay.
  template <class Fn>
  bool open(int step, int expected, Fn&& deliver) {
    step_ = step;
    expected_ = expected;
    seen_ = 0;
    early_.erase(early_.begin(), early_.lower_bound(step));
    auto it = early_.find(step);
    if (it != early_.end()) {
      std::vector<Msg> msgs = std::move(it->second);
      early_.erase(it);
      for (const Msg& m : msgs) deliver(m);
    }
    return expected_ == 0 && step_ == step;
  }

  /// Routes an arrival tagged `step`.  True: it belongs to the open gather —
  /// incorporate it, then call accept().  False: it was buffered for a
  /// future open() (step >= current) or dropped as stale.
  bool offer(int step, const Msg& m) {
    if (step == step_ && gathering()) return true;
    if (step >= step_) early_[step].push_back(m);
    return false;
  }

  /// Counts one incorporated arrival; true when the gather just completed.
  bool accept() { return ++seen_ >= expected_; }

  /// Ends the step: later arrivals for it are stale, next-step arrivals
  /// buffer until the matching open().
  void close() {
    expected_ = 0;
    ++step_;
  }

  template <class P>
  void pup(P& p) {
    p | step_;
    p | expected_;
    p | seen_;
    p | early_;
  }

 private:
  int step_ = 0;
  int expected_ = 0;
  int seen_ = 0;
  std::map<int, std::vector<Msg>> early_;  ///< future-step arrivals, by step
};

}  // namespace charm
