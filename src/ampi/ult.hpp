#pragma once
// User-level threads for AMPI ranks (§II-D: "AMPI ... uses light-weight
// user-level threads instead of OS processes").
//
// Implemented with POSIX ucontext; stacks are heap-allocated, so moving a
// rank between the emulator's PEs is a pointer handoff (the single-process
// stand-in for AMPI's isomalloc stack migration; DESIGN.md §1).

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace charm::ampi {

/// Stack size of every rank's user-level thread.
inline constexpr std::size_t kStackBytes = 128 * 1024;

class Ult {
 public:
  Ult();
  ~Ult() = default;
  Ult(const Ult&) = delete;
  Ult& operator=(const Ult&) = delete;

  /// Arms the thread with its body; does not run it.
  void start(std::function<void()> fn);

  /// Switch from the scheduler into the thread until it yields or returns.
  /// Returns true while the thread has more work (i.e. it yielded).
  bool resume();

  /// Called from inside the thread: switch back to the scheduler.
  void yield();

  bool started() const { return started_; }
  bool finished() const { return finished_; }

 private:
  static void trampoline(unsigned int hi, unsigned int lo);
  void body();

  std::vector<std::byte> stack_;
  ucontext_t ctx_{};
  ucontext_t sched_{};
  std::function<void()> fn_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace charm::ampi
