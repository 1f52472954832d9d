#pragma once
// Lumped-RC thermal model per chip (DESIGN.md §1: substitute for on-chip
// sensors).  A chip groups pes_per_chip consecutive PEs; its temperature
// starts at 40 °C and integrates dT/dt = heat * power - cool * (T - ambient)
// with heat = 0.125 °C/J, cool = 0.15/s, and power = 8 W leakage + 40 W *
// utilization * frequency^3 (DVFS's cubic lever).

#include <vector>

namespace charm::power {

struct ThermalParams {
  double ambient_c = 30.0;     ///< room/CRAC-set inlet temperature (°C)
  /// Machine-room non-uniformity: chip i cools at 0.15/s * (1 ± spread/2)
  /// across the rack (hot spots are what make naive DVFS throttle unevenly).
  double cool_spread = 0.0;
};

class ThermalModel {
 public:
  ThermalModel(int nchips, ThermalParams params);

  /// Advance chip `c` by `dt` seconds at the given utilization [0,1] and
  /// frequency scale.  Returns the new temperature.
  double step(int chip, double dt, double utilization, double freq);

  double temperature(int chip) const { return temps_.at(static_cast<std::size_t>(chip)); }
  double max_seen() const { return max_seen_; }
  int nchips() const { return static_cast<int>(temps_.size()); }
  /// Per-chip cooling rate (rack hot spots via cool_spread).
  double cool_of(int chip) const;

 private:
  ThermalParams params_;
  std::vector<double> temps_;
  double max_seen_ = 0;
};

}  // namespace charm::power
