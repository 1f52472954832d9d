#pragma once
// Checkpoint/restart step driver.
//
// Runs an application as a sequence of globally quiescent steps with a
// periodic in-memory checkpoint, and — when the attached MemCheckpointer
// recovers from a failure — rolls its own notion of progress back to the
// last committed checkpoint and replays from there.  This is the driver-side
// half of the paper's §III-B story: the checkpointer restores chare state,
// the driver restores control flow.
//
// Generation counting makes lost work harmless: every failure bumps `gen_`,
// and a step boundary issued under an older generation is ignored (its
// step's messages were dropped with the victim, so it may never fire at all;
// if it does fire, it must not advance the replayed timeline).

#include <cstdint>
#include <functional>

#include "ft/mem_checkpoint.hpp"
#include "runtime/callback.hpp"
#include "runtime/runtime.hpp"

namespace charm::ft {

class ResilientDriver {
 public:
  /// `step_fn(step, boundary)` runs application step `step` (1-based) and
  /// must invoke `boundary` exactly once when the step's work has quiesced.
  /// After a failure the same step number may be issued again (replay).
  using StepFn = std::function<void(int step, std::function<void()> boundary)>;

  /// Registers failure/recovery observers on `ckpt` (one driver per
  /// checkpointer).  A checkpoint is taken every `ckpt_period` steps.
  ResilientDriver(Runtime& rt, MemCheckpointer& ckpt, StepFn step_fn,
                  int total_steps, int ckpt_period);

  /// Call from a PE-0 handler.  Takes the initial checkpoint (so the run is
  /// recoverable from step 0), then drives steps; invokes `done` once
  /// total_steps have completed, surviving any recovered failures.
  void start(Callback done);

  int steps_completed() const { return step_; }
  int steps_replayed() const { return replayed_; }

 private:
  void advance();
  void take_checkpoint();

  Runtime& rt_;
  MemCheckpointer& ckpt_;
  StepFn step_fn_;
  int total_steps_;
  int ckpt_period_;
  Callback done_;
  int step_ = 0;             ///< last completed step
  int last_ckpt_step_ = -1;  ///< step count at the last committed checkpoint
  int replayed_ = 0;
  bool finished_ = false;
  std::uint64_t gen_ = 0;  ///< bumped per failure; stale boundaries bail
};

}  // namespace charm::ft
