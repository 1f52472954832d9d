#include "lb/meta.hpp"

namespace charm::lb {

Advisor make_meta_advisor(MetaParams params) {
  return [params](const std::vector<RoundInfo>& history, const RoundInfo& current) {
    if (current.avg_load <= 0) return false;

    // Respect the minimum gap since the last invocation.
    int since_lb = params.min_gap;  // assume far in the past initially
    double last_cost = params.default_lb_cost;
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      if (it->did_lb) {
        since_lb = current.round - it->round;
        last_cost = it->lb_cost > 0 ? it->lb_cost : params.default_lb_cost;
        break;
      }
    }
    if (since_lb < params.min_gap) return false;

    const double imbalance = current.max_load / current.avg_load;
    if (imbalance < params.imbalance_tol) return false;

    // Benefit: per-round time recovered if the imbalance were flattened,
    // accrued over the horizon.  Trigger when it beats the LB cost.
    const double per_round_gain = current.max_load - current.avg_load;
    return per_round_gain * params.horizon_rounds > last_cost;
  };
}

}  // namespace charm::lb
