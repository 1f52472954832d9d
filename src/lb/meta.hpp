#pragma once
// MetaLB: automated load-balancing invocation (§III-A / Menon et al., IEEE
// Cluster'12; used as "MetaTemp" in Fig 4).  Instead of a fixed period, the
// advisor triggers the balancer when the modeled benefit of rebalancing over
// a lookahead horizon exceeds the measured cost of the last LB round.

#include "lb/manager.hpp"

namespace charm::lb {

struct MetaParams {
  double imbalance_tol = 1.08;   ///< ignore imbalance below max/avg = tol
  double horizon_rounds = 20;    ///< rounds over which the benefit accrues
  double default_lb_cost = 5e-3; ///< cost estimate before any LB has run (s)
  int min_gap = 2;               ///< min rounds between LB invocations
};

Advisor make_meta_advisor(MetaParams params = {});

}  // namespace charm::lb
