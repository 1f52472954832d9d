#pragma once
// Grapevine-style distributed load balancing decisions (§IV-A-2 uses a
// distributed strategy on AMR at 128K PEs; see Menon & Kale, SC'13).
//
// Each overloaded PE knows only the global average (one allreduce) and probes
// a few random PEs; transfers flow from overloaded PEs to accepting
// underloaded ones.  The decision algorithm is computed exactly; the manager
// models the allreduce latency and the probe message traffic.

#include <cstdint>

#include "lb/strategy.hpp"

namespace charm::lb {

struct GossipResult {
  std::vector<Migration> migrations;
  int probes = 0;  ///< probe messages issued (for traffic modeling)
};

/// A PE is overloaded above 1.03x the average load and probes 4 random PEs.
GossipResult gossip_assign(const Stats& stats, std::uint64_t seed);

}  // namespace charm::lb
