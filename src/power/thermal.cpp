#include "power/thermal.hpp"

#include <algorithm>

namespace charm::power {

namespace {
constexpr double kStaticW = 8.0;      // leakage power per chip (W)
constexpr double kDynW = 40.0;        // dynamic power per chip at u=1, f=1 (W)
constexpr double kHeatCPerJ = 0.125;  // °C gained per joule
constexpr double kCoolPerS = 0.15;    // fractional decay toward ambient per second
constexpr double kInitialC = 40.0;    // chip temperature at t = 0 (°C)
constexpr double kCoolSpread = 0.7;   // cooling-rate spread across the rack
}  // namespace

ThermalModel::ThermalModel(int nchips)
    : temps_(static_cast<std::size_t>(nchips), kInitialC), max_seen_(kInitialC) {}

double ThermalModel::cool_of(int chip) const {
  if (nchips() <= 1) return kCoolPerS;
  const double frac = static_cast<double>(chip) / (nchips() - 1) - 0.5;
  return kCoolPerS * (1.0 - kCoolSpread * frac);
}

double ThermalModel::step(int chip, double dt, double utilization, double freq) {
  double& t = temps_.at(static_cast<std::size_t>(chip));
  const double power = kStaticW + kDynW * utilization * freq * freq * freq;
  const double cool = cool_of(chip);
  // Sub-step the ODE for stability when dt is large relative to cooling.
  const int substeps = std::max(1, static_cast<int>(dt * cool * 10));
  const double h = dt / substeps;
  for (int s = 0; s < substeps; ++s) {
    t += h * (kHeatCPerJ * power - cool * (t - kAmbientC));
  }
  max_seen_ = std::max(max_seen_, t);
  return t;
}

}  // namespace charm::power
