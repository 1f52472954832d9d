#pragma once
// Temperature-aware DVFS control (§III-C, Fig 4).
//
// The manager samples per-chip utilization every control period, integrates
// the thermal model, and applies the selected policy:
//   kNone      — no DVFS (Base): chips run hot, no timing penalty from DVFS.
//   kNaiveDvfs — DVFS constrains temperature; the resulting frequency spread
//                creates load imbalance and a large timing penalty.
//   kDvfsLb    — DVFS plus periodic temperature-aware load balancing every
//                lb_period seconds (LB_10s / LB_5s in the paper).
//   kMetaTemp  — DVFS plus MetaLB-style triggering: rebalance only when the
//                measured benefit outweighs the cost.
//
// Frequency changes act through sim::Pe::set_freq, so hot, throttled chips
// really do run their chares slower in virtual time; the LB strategies are
// speed-aware and shift work accordingly.

#include <vector>

#include "power/thermal.hpp"
#include "runtime/runtime.hpp"

namespace charm::power {

enum class Policy { kNone, kNaiveDvfs, kDvfsLb, kMetaTemp };

/// DVFS moves a chip one frequency level (0.5, 0.6, ..., 1.0) per control
/// period: down above the paper's 50 °C threshold, up below 47 °C.
class Manager {
 public:
  /// Samples utilization and applies the policy every `period_s` seconds.
  Manager(Runtime& rt, double period_s);

  /// Begin periodic control.  For kDvfsLb, `lb_period_s` sets the fixed
  /// rebalance interval; for kMetaTemp install a MetaLB advisor on rt.lb()
  /// before starting.
  void start(Policy policy, double lb_period_s = 0);
  void stop() { running_ = false; }

  const ThermalModel& thermal() const { return model_; }
  double max_temp_seen() const { return model_.max_seen(); }

 private:
  void tick();
  void apply_dvfs();

  Runtime& rt_;
  double period_;
  int pes_per_chip_;
  ThermalModel model_;
  Policy policy_ = Policy::kNone;
  double lb_period_ = 0;
  double last_lb_ = 0;
  bool running_ = false;
  std::vector<double> last_busy_;
  std::vector<int> level_;  ///< current DVFS level index per chip
};

}  // namespace charm::power
