#include "ampi/ult.hpp"

#include <cstdint>
#include <stdexcept>

namespace charm::ampi {

Ult::Ult() : stack_(kStackBytes) {}

void Ult::trampoline(unsigned int hi, unsigned int lo) {
  auto* self = reinterpret_cast<Ult*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo));
  self->body();
}

void Ult::body() {
  fn_();
  finished_ = true;
  // Return to the scheduler permanently.
  swapcontext(&ctx_, &sched_);
}

void Ult::start(std::function<void()> fn) {
  fn_ = std::move(fn);
  if (getcontext(&ctx_) != 0) throw std::runtime_error("Ult: getcontext failed");
  ctx_.uc_stack.ss_sp = stack_.data();
  ctx_.uc_stack.ss_size = stack_.size();
  ctx_.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Ult::trampoline), 2,
              static_cast<unsigned int>(p >> 32),
              static_cast<unsigned int>(p & 0xFFFFFFFFu));
  started_ = true;
}

bool Ult::resume() {
  if (!started_ || finished_) return false;
  if (swapcontext(&sched_, &ctx_) != 0) throw std::runtime_error("Ult: swapcontext failed");
  return !finished_;
}

void Ult::yield() {
  if (swapcontext(&ctx_, &sched_) != 0) throw std::runtime_error("Ult: swapcontext failed");
}

}  // namespace charm::ampi
