#include "ft/resilient_driver.hpp"

#include <algorithm>
#include <utility>

namespace charm::ft {

ResilientDriver::ResilientDriver(Runtime& rt, MemCheckpointer& ckpt,
                                 StepFn step_fn, int total_steps, int ckpt_period)
    : rt_(rt),
      ckpt_(ckpt),
      step_fn_(std::move(step_fn)),
      total_steps_(total_steps),
      ckpt_period_(ckpt_period) {
  ckpt_.set_failure_observer([this](int) {
    ++gen_;  // anything the lost step still delivers is stale now
  });
  ckpt_.set_recovery_observer([this]() {
    if (finished_) {
      // A failure after completion rolled back to the final checkpoint (the
      // completed state); just re-announce completion.
      done_.invoke(rt_, ReductionResult{});
      return;
    }
    // Chare state is back at the last committed checkpoint; wind the driver
    // back to match and replay.
    replayed_ += std::max(0, step_ - last_ckpt_step_);
    step_ = std::max(0, last_ckpt_step_);
    advance();
  });
}

void ResilientDriver::start(Callback done) {
  done_ = done;
  const std::uint64_t g = gen_;
  ckpt_.checkpoint(Callback::to_function([this, g](ReductionResult&&) {
    if (gen_ != g) return;
    last_ckpt_step_ = 0;
    advance();
  }));
}

void ResilientDriver::advance() {
  if (finished_) return;
  if (step_ >= total_steps_) {
    // Final checkpoint: a failure after completion then restores the
    // *completed* state instead of rolling the finished run back.
    const std::uint64_t g = gen_;
    ckpt_.checkpoint(Callback::to_function([this, g](ReductionResult&&) {
      if (gen_ != g) return;
      last_ckpt_step_ = step_;
      finished_ = true;
      done_.invoke(rt_, ReductionResult{});
    }));
    return;
  }
  const std::uint64_t g = gen_;
  const int s = step_ + 1;
  // Hop to PE 0 so every step (original or replayed) is issued from the same
  // root: broadcasts then use the same spanning tree, which keeps replayed
  // message orderings identical to the failure-free run.
  rt_.on_pe(0, [this, g, s]() {
    if (gen_ != g) return;
    step_fn_(s, [this, g, s]() {
      if (gen_ != g) return;  // step was lost to a failure; recovery replays it
      step_ = s;
      if (ckpt_period_ > 0 && s % ckpt_period_ == 0 && s < total_steps_) {
        take_checkpoint();
      } else {
        advance();
      }
    });
  });
}

void ResilientDriver::take_checkpoint() {
  const std::uint64_t g = gen_;
  ckpt_.checkpoint(Callback::to_function([this, g](ReductionResult&&) {
    if (gen_ != g) return;  // aborted mid-checkpoint; prior commit stands
    last_ckpt_step_ = step_;
    advance();
  }));
}

}  // namespace charm::ft
