#pragma once
// Double in-memory checkpoint and restart (§III-B; Zheng, Shi & Kale,
// FTC-Charm++, Cluster'04).
//
// CkStartMemCheckpoint: each PE PUPs its chares into its own memory AND into
// a buddy PE's memory.  On a process failure, the buddy's copies restore the
// failed PE's chares onto the replacement, and every chare rolls back to the
// last checkpoint; the application then continues.
//
// The host keeps one copy of each element image, indexed by owner PE; the
// buddy copy is a flag (`buddy_valid_`).  Every modeled leg, byte and charge
// of the two-copy protocol is unchanged.
//
// Hardening against injected failures (sim::FaultInjector):
//   * Checkpoints stage into a scratch store and commit atomically on
//     completion; a failure mid-checkpoint aborts the staged copy and the
//     previous committed checkpoint stays authoritative.
//   * Every asynchronous protocol leg carries the epoch it was issued under;
//     a failure bumps the epoch, so stale legs (of an aborted checkpoint or
//     an interrupted restore) become no-ops.
//   * Multiple failures before recovery completes accumulate victims; the
//     detection timer restarts and one combined restore revives them all.
//   * After a successful restore the double copies lost with the victims are
//     re-replicated, so a later failure of the old victim's buddy is again
//     recoverable.  Losing a PE *and* its buddy between re-replications is
//     unrecoverable, as in the paper — reported as a clean std::runtime_error.
//   * A failure after a shrink or expand is refused (std::logic_error) until
//     a checkpoint is taken at the new PE count.
//
// Every failure, injected or raised by fail_and_recover, quarantines the
// victim through sim::Machine::fail_pe: its queued and in-flight messages
// are discarded, and rollback discards its chares; the same PE slot then
// plays the role of the replacement process (DESIGN.md §1).

#include <cstdint>
#include <functional>
#include <vector>

#include "ft/checkpoint.hpp"
#include "runtime/callback.hpp"
#include "runtime/runtime.hpp"

namespace sim {
class FaultInjector;
}

namespace charm::ft {

struct MemCkptParams {
  double detect_delay = 10e-3;   ///< failure detection time before recovery (s)
};

class MemCheckpointer {
 public:
  explicit MemCheckpointer(Runtime& rt, MemCkptParams params = {});

  /// CkStartMemCheckpoint(callback).  Throws std::logic_error if called
  /// while a recovery is pending (the global state is not consistent) or
  /// while another checkpoint is in flight.
  void checkpoint(Callback done);

  /// Kill PE `victim`, run the recovery protocol, roll every chare back to
  /// the last checkpoint, then invoke `done`.  Throws, before changing any
  /// state, std::logic_error when no checkpoint has been committed yet or
  /// active_pes() has changed since the last commit, and std::out_of_range
  /// unless 0 <= victim < active_pes().
  void fail_and_recover(int victim, Callback done);

  /// Registers this checkpointer as `fi`'s failure listener: every injected
  /// failure starts (or extends) a recovery automatically.
  void attach_injector(sim::FaultInjector& fi);

  /// Called synchronously when a failure is observed (before detection).
  void set_failure_observer(std::function<void(int victim)> fn) {
    failure_observer_ = std::move(fn);
  }
  /// Called when a recovery completes and the application may resume.
  void set_recovery_observer(std::function<void()> fn) {
    recovery_observer_ = std::move(fn);
  }

  std::uint64_t checkpoint_bytes() const { return total_bytes_; }
  int checkpoints_taken() const { return checkpoints_; }
  int checkpoints_aborted() const { return ckpt_aborted_; }
  bool recovery_pending() const { return !pending_victims_.empty(); }
  /// Completed recoveries; each is one kRestore phase fact (aux = victims).
  int recoveries_completed() const { return recoveries_; }

 private:
  /// Common failure path (manual fail_and_recover and injected failures).
  void on_failure(int victim, Callback done);
  /// Revives all pending victims and runs the combined rollback + restore.
  void begin_restore();

  Runtime& rt_;
  MemCkptParams params_;
  // images_[p]: p's element images at the last commit, held (in the model)
  // in p's memory and in its buddy (p+1)%P's.
  std::vector<std::vector<ElementImage>> images_;
  // Staging store for the checkpoint in flight (committed atomically).
  std::vector<std::vector<ElementImage>> stage_;
  /// PE b holds the buddy copy of ((b-1+P)%P)'s images (it turns invalid
  /// when b's process is lost, and valid again once re-replicated).
  std::vector<char> buddy_valid_;
  int committed_pes_ = 0;  ///< active PEs the committed images are laid out for
  std::uint64_t stage_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  int checkpoints_ = 0;
  int ckpt_aborted_ = 0;
  bool ckpt_in_progress_ = false;
  /// Bumped on every failure; stale async legs compare and bail.
  std::uint64_t epoch_ = 0;
  std::vector<int> pending_victims_;
  std::vector<Callback> recovery_done_cbs_;
  int recoveries_ = 0;
  std::function<void(int)> failure_observer_;
  std::function<void()> recovery_observer_;
  double burst_begin_ = 0;  ///< first failure time, for the trace restore span
};

}  // namespace charm::ft
