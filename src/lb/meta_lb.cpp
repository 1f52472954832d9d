#include "lb/meta.hpp"

namespace charm::lb {

namespace {
constexpr double kImbalanceTol = 1.12;  // ignore imbalance below max/avg = tol
constexpr double kHorizonRounds = 15;   // rounds over which the benefit accrues
constexpr double kDefaultLbCost = 3e-3; // cost estimate before any LB has run (s)
constexpr int kMinGap = 3;              // min rounds between LB invocations
}  // namespace

Advisor make_meta_advisor() {
  return [](const std::vector<RoundInfo>& history, const RoundInfo& current) {
    if (current.avg_load <= 0) return false;

    // Respect the minimum gap since the last invocation.
    int since_lb = kMinGap;  // assume far in the past initially
    double last_cost = kDefaultLbCost;
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      if (it->did_lb) {
        since_lb = current.round - it->round;
        last_cost = it->lb_cost > 0 ? it->lb_cost : kDefaultLbCost;
        break;
      }
    }
    if (since_lb < kMinGap) return false;

    const double imbalance = current.max_load / current.avg_load;
    if (imbalance < kImbalanceTol) return false;

    // Benefit: per-round time recovered if the imbalance were flattened,
    // accrued over the horizon.  Trigger when it beats the LB cost.
    const double per_round_gain = current.max_load - current.avg_load;
    return per_round_gain * kHorizonRounds > last_cost;
  };
}

}  // namespace charm::lb
