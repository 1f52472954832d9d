#pragma once
// Parameterized network performance model (alpha/beta + per-hop) for the
// emulated machine.  Presets approximate the classes of interconnects in the
// paper's evaluation (BG/Q, Cray Gemini, commodity-Ethernet cloud); absolute
// values are representative, not calibrated.

#include <cstddef>

#include "sim/topology.hpp"

namespace sim {

struct NetworkParams {
  double alpha_send = 0.4e-6;   ///< sender CPU overhead per message (s)
  double alpha_recv = 0.4e-6;   ///< receiver scheduling overhead per message (s)
  double latency = 1.2e-6;      ///< base wire latency (s)
  double bandwidth = 4.0e9;     ///< payload bandwidth (bytes/s)
  /// Added latency per torus hop (s).  0 models a network without a torus
  /// (the cloud preset): then neither a per-hop term nor a hop count applies.
  double per_hop = 40e-9;

  /// Blue Gene/Q-like: low latency, modest per-link bandwidth, big torus.
  static NetworkParams bluegene_q();
  /// Cray XE6/XK7 (Gemini)-like: higher bandwidth, slightly higher latency.
  static NetworkParams cray_gemini();
  /// Older Cray XT5 (SeaStar)-like: slower than Gemini in both terms.
  static NetworkParams cray_seastar();
  /// Commodity cloud Ethernet: ~order of magnitude worse latency/bandwidth.
  static NetworkParams cloud_ethernet();
};

/// Computes message delivery delay between PEs.
class NetworkModel {
 public:
  NetworkModel(NetworkParams params, const Torus3D& topo)
      : params_(params), topo_(&topo) {}

  const NetworkParams& params() const { return params_; }

  /// Time from departure at src to arrival in dst's scheduler queue.
  double transit_time(int src, int dst, std::size_t bytes) const;

  /// Torus hops a src -> dst message is charged for: 0 for a self-send and
  /// on a network with no per-hop term.
  int hops(int src, int dst) const {
    return params_.per_hop > 0 && src != dst ? topo_->hops(src, dst) : 0;
  }

 private:
  NetworkParams params_;
  const Torus3D* topo_;
};

}  // namespace sim
