#include "power/power_manager.hpp"

#include "lb/manager.hpp"

#include <algorithm>
#include <array>

namespace charm::power {

namespace {
constexpr std::array<double, 6> kLevels{0.5, 0.6, 0.7, 0.8, 0.9, 1.0};  // frequency scales
constexpr double kThresholdC = 50.0;  // throttle above this chip temperature (°C)
constexpr double kMarginC = 3.0;  // unthrottle below threshold - margin (°C)
}  // namespace

Manager::Manager(Runtime& rt, double period_s)
    : rt_(rt),
      period_(period_s),
      pes_per_chip_(rt.machine().config().pes_per_chip),
      model_((rt.npes() + pes_per_chip_ - 1) / pes_per_chip_),
      last_busy_(static_cast<std::size_t>(rt.npes()), 0.0),
      level_(static_cast<std::size_t>(model_.nchips()),
             static_cast<int>(kLevels.size()) - 1) {}

void Manager::start(Policy policy, double lb_period_s) {
  policy_ = policy;
  lb_period_ = lb_period_s;
  last_lb_ = rt_.now();
  running_ = true;
  for (int pe = 0; pe < rt_.npes(); ++pe)
    last_busy_[static_cast<std::size_t>(pe)] = rt_.machine().pe(pe).busy_time();
  rt_.after(0, period_, [this] { tick(); });
}

void Manager::tick() {
  if (!running_ || rt_.machine().stopped()) return;
  // Self-terminate once the application has drained (only this timer left);
  // otherwise the periodic timer would keep the machine alive forever.
  if (rt_.outstanding() == 0 && rt_.machine().pending_events() <= 1) return;

  // Per-chip utilization over the last period from the PEs' busy counters.
  for (int chip = 0; chip < model_.nchips(); ++chip) {
    double busy = 0;
    double freq = 0;
    int members = 0;
    for (int pe = chip * pes_per_chip_;
         pe < std::min((chip + 1) * pes_per_chip_, rt_.npes()); ++pe) {
      const double b = rt_.machine().pe(pe).busy_time();
      busy += b - last_busy_[static_cast<std::size_t>(pe)];
      last_busy_[static_cast<std::size_t>(pe)] = b;
      freq += rt_.machine().pe(pe).freq();
      ++members;
    }
    const double util = std::clamp(busy / (period_ * members), 0.0, 1.0);
    model_.step(chip, period_, util, freq / members);
  }

  if (policy_ != Policy::kNone) apply_dvfs();

  if (policy_ == Policy::kDvfsLb && lb_period_ > 0 &&
      rt_.now() - last_lb_ >= lb_period_) {
    last_lb_ = rt_.now();
    rt_.lb().request_lb();
  }
  // kMetaTemp: the MetaLB advisor installed on the LB manager decides.

  rt_.after(0, period_, [this] { tick(); });
}

void Manager::apply_dvfs() {
  for (int chip = 0; chip < model_.nchips(); ++chip) {
    int& lvl = level_[static_cast<std::size_t>(chip)];
    const double t = model_.temperature(chip);
    if (t > kThresholdC && lvl > 0) {
      --lvl;
    } else if (t < kThresholdC - kMarginC &&
               lvl + 1 < static_cast<int>(kLevels.size())) {
      ++lvl;
    }
    const double f = kLevels[static_cast<std::size_t>(lvl)];
    for (int pe = chip * pes_per_chip_;
         pe < std::min((chip + 1) * pes_per_chip_, rt_.npes()); ++pe) {
      rt_.machine().pe(pe).set_freq(f);
    }
  }
}

}  // namespace charm::power
