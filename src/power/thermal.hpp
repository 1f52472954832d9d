#pragma once
// Lumped-RC thermal model per chip (DESIGN.md §1: substitute for on-chip
// sensors).  A chip groups pes_per_chip consecutive PEs; its temperature
// starts at 40 °C and integrates dT/dt = heat * power - cool * (T - ambient)
// with ambient = 30 °C, heat = 0.125 °C/J, cool = 0.15/s, and power = 8 W
// leakage + 40 W * utilization * frequency^3 (DVFS's cubic lever).
// Chip i of n cools at 0.15/s * (1 - 0.7 * (i/(n-1) - 1/2)): the rack's hot
// spots are what make naive DVFS throttle unevenly.

#include <vector>

namespace charm::power {

inline constexpr double kAmbientC = 30.0;  ///< room/CRAC-set inlet temperature (°C)

class ThermalModel {
 public:
  explicit ThermalModel(int nchips);

  /// Advance chip `c` by `dt` seconds at the given utilization [0,1] and
  /// frequency scale.  Returns the new temperature.
  double step(int chip, double dt, double utilization, double freq);

  double temperature(int chip) const { return temps_.at(static_cast<std::size_t>(chip)); }
  double max_seen() const { return max_seen_; }
  int nchips() const { return static_cast<int>(temps_.size()); }
  /// Per-chip cooling rate (the rack's hot spots).
  double cool_of(int chip) const;

 private:
  std::vector<double> temps_;
  double max_seen_ = 0;
};

}  // namespace charm::power
