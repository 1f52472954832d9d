#include "tuning/control_point.hpp"

#include <algorithm>
#include <stdexcept>

namespace charm::tuning {

namespace {
constexpr int kWarmupSteps = 1;          // ignored steps after each change
constexpr int kWindowSteps = 2;          // measured steps per candidate
constexpr double kImproveMargin = 0.02;  // relative gain required to keep moving

int advance(int v, int dir, int lo, int hi) {
  int next = dir > 0 ? std::max(v + 1, v * 2) : std::min(v - 1, v / 2);
  return std::clamp(next, lo, hi);
}
}  // namespace

ControlPoint::ControlPoint(std::string name, int min_value, int max_value, int initial)
    : name_(std::move(name)), min_(min_value), max_(max_value), value_(initial) {
  if (min_ > max_ || initial < min_ || initial > max_)
    throw std::invalid_argument("ControlPoint: inconsistent range");
}

void ControlPoint::set_value(int v) { value_ = std::clamp(v, min_, max_); }

Tuner::Tuner(ControlPoint& cp)
    : cp_(cp), best_value_(cp.value()) {
  state_ = State::kWarmup;
  steps_left_ = kWarmupSteps;
}

void Tuner::report(double step_metric) {
  switch (state_) {
    case State::kDone:
      return;
    case State::kWarmup:
      if (--steps_left_ <= 0) {
        state_ = State::kMeasure;
        steps_left_ = kWindowSteps;
        accum_ = 0;
        accum_n_ = 0;
      }
      return;
    case State::kMeasure:
      accum_ += step_metric;
      ++accum_n_;
      if (--steps_left_ <= 0) window_complete(accum_ / accum_n_);
      return;
  }
}

void Tuner::window_complete(double avg) {
  ++probes_;
  const int cur = cp_.value();

  auto settle = [this] {
    cp_.set_value(best_value_);
    state_ = State::kDone;
  };

  if (best_metric_ < 0) {
    // First measurement establishes the baseline; start probing upward.
    best_metric_ = avg;
    best_value_ = cur;
    const int next = advance(cur, direction_, cp_.min_value(), cp_.max_value());
    if (next == cur) {
      settle();
    } else {
      move_to(next);
    }
    return;
  }

  if (avg < best_metric_ * (1.0 - kImproveMargin)) {
    // Keep moving in the improving direction.
    best_metric_ = avg;
    best_value_ = cur;
    const int next = advance(cur, direction_, cp_.min_value(), cp_.max_value());
    if (next == cur) {
      if (!tried_reverse_) {
        tried_reverse_ = true;
        direction_ = -direction_;
        const int back = advance(best_value_, direction_, cp_.min_value(), cp_.max_value());
        if (back == best_value_) {
          settle();
        } else {
          move_to(back);
        }
      } else {
        settle();
      }
    } else {
      move_to(next);
    }
    return;
  }

  // Current candidate is worse than the best seen.
  if (!tried_reverse_) {
    tried_reverse_ = true;
    direction_ = -direction_;
    const int back = advance(best_value_, direction_, cp_.min_value(), cp_.max_value());
    if (back != best_value_ && back != cur) {
      move_to(back);
      return;
    }
  }
  // Final refinement: probe the midpoint between the best value and the
  // nearest worse candidate once, then settle.
  const int mid = (best_value_ + cur) / 2;
  if (!refined_ && mid != best_value_ && mid != cur) {
    refined_ = true;
    move_to(mid);
    return;
  }
  settle();
}

void Tuner::move_to(int v) {
  cp_.set_value(v);
  state_ = State::kWarmup;
  steps_left_ = kWarmupSteps;
}

}  // namespace charm::tuning
