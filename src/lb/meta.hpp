#pragma once
// MetaLB: automated load-balancing invocation (§III-A / Menon et al., IEEE
// Cluster'12; used as "MetaTemp" in Fig 4).  Instead of a fixed period, the
// advisor triggers the balancer when the modeled benefit of rebalancing over
// a lookahead horizon exceeds the measured cost of the last LB round.
//
// The advisor ignores imbalance below max/avg = 1.12, accrues the benefit
// over 15 rounds, assumes a 3 ms LB cost before any round has run, and
// leaves at least 3 rounds between invocations (the settings of Fig 4).

#include "lb/manager.hpp"

namespace charm::lb {

Advisor make_meta_advisor();

}  // namespace charm::lb
