#pragma once
// Introspective control system (§III-E, Fig 6).
//
// A control point is a tunable integer parameter with a bounded range.  The
// tuner monitors a per-step performance metric, probes neighboring values,
// and converges on the best setting — the runtime equivalent of the paper's
// expert-rule control system tuning the number of pipeline messages in a ping
// benchmark.

#include <cstdint>
#include <string>
#include <vector>

namespace charm::tuning {

class ControlPoint {
 public:
  ControlPoint(std::string name, int min_value, int max_value, int initial);

  const std::string& name() const { return name_; }
  int value() const { return value_; }
  int min_value() const { return min_; }
  int max_value() const { return max_; }
  void set_value(int v);

 private:
  std::string name_;
  int min_;
  int max_;
  int value_;
};

/// Hill-climbing tuner over one control point: ignore the first step after
/// each change, average the next two, keep moving in the improving
/// direction with geometric steps while a candidate beats the best by more
/// than 2%, then refine and settle.
class Tuner {
 public:
  explicit Tuner(ControlPoint& cp);

  /// Feed one step's metric (lower is better).  May adjust the control point.
  void report(double step_metric);

  bool converged() const { return state_ == State::kDone; }
  int best_value() const { return best_value_; }
  double best_metric() const { return best_metric_; }
  int probes() const { return probes_; }

 private:
  enum class State { kWarmup, kMeasure, kDone };

  void window_complete(double avg);
  void move_to(int v);

  ControlPoint& cp_;
  State state_ = State::kWarmup;
  int steps_left_ = 0;
  double accum_ = 0;
  int accum_n_ = 0;

  int best_value_;
  double best_metric_ = -1;
  int direction_ = +1;  ///< current search direction (multiplicative)
  bool tried_reverse_ = false;
  bool refined_ = false;
  int probes_ = 0;
};

}  // namespace charm::tuning
