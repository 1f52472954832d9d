#include "sim/network.hpp"

namespace sim {

NetworkParams NetworkParams::bluegene_q() {
  NetworkParams p;
  p.alpha_send = 0.5e-6;
  p.alpha_recv = 0.5e-6;
  p.latency = 1.0e-6;
  p.bandwidth = 1.8e9;
  p.per_hop = 40e-9;
  return p;
}

NetworkParams NetworkParams::cray_gemini() {
  NetworkParams p;
  p.alpha_send = 0.4e-6;
  p.alpha_recv = 0.4e-6;
  p.latency = 1.4e-6;
  p.bandwidth = 5.0e9;
  p.per_hop = 60e-9;
  return p;
}

NetworkParams NetworkParams::cray_seastar() {
  NetworkParams p;
  p.alpha_send = 0.8e-6;
  p.alpha_recv = 0.8e-6;
  p.latency = 4.0e-6;
  p.bandwidth = 1.6e9;
  p.per_hop = 120e-9;
  return p;
}

NetworkParams NetworkParams::cloud_ethernet() {
  NetworkParams p;
  p.alpha_send = 4.0e-6;
  p.alpha_recv = 4.0e-6;
  p.latency = 40e-6;
  p.bandwidth = 0.12e9;
  p.per_hop = 0;
  return p;
}

namespace {
constexpr double kSelfOverhead = 0.08e-6;  // local (same-PE) delivery overhead (s)
}  // namespace

double NetworkModel::transit_time(int src, int dst, std::size_t bytes) const {
  if (src == dst) return kSelfOverhead;
  double t = params_.latency + static_cast<double>(bytes) / params_.bandwidth;
  return t + params_.per_hop * hops(src, dst);
}

}  // namespace sim
