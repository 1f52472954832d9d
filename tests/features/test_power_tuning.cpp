// Power/thermal model, DVFS governor, and introspective control point tests.

#include <gtest/gtest.h>

#include "power/power_manager.hpp"
#include "power/thermal.hpp"
#include "runtime/charm.hpp"
#include "tuning/control_point.hpp"

namespace {

using namespace charm;

TEST(Thermal, HeatsUnderLoadCoolsWhenIdle) {
  power::ThermalModel model(1);
  const double t0 = model.temperature(0);
  for (int i = 0; i < 200; ++i) model.step(0, 0.1, 1.0, 1.0);
  const double hot = model.temperature(0);
  EXPECT_GT(hot, t0 + 5.0);
  for (int i = 0; i < 500; ++i) model.step(0, 0.1, 0.0, 1.0);
  EXPECT_LT(model.temperature(0), hot);
  EXPECT_NEAR(model.max_seen(), hot, 1.0);
}

TEST(Thermal, SteadyStateScalesWithFrequencyCubed) {
  power::ThermalModel m_full(1), m_half(1);
  for (int i = 0; i < 2000; ++i) {
    m_full.step(0, 0.1, 1.0, 1.0);
    m_half.step(0, 0.1, 1.0, 0.6);
  }
  const double rise_full = m_full.temperature(0) - power::kAmbientC;
  const double rise_half = m_half.temperature(0) - power::kAmbientC;
  // Dynamic power at f=0.6 is ~0.22x; total rise must be much smaller.
  EXPECT_LT(rise_half, 0.55 * rise_full);
}

class Spinner : public charm::ArrayElement<Spinner, std::int32_t> {
 public:
  int remaining = 0;
  void go(const struct SpinMsg&);
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | remaining;
  }
};

struct SpinMsg {
  int iters = 0;
  void pup(pup::Er& p) { p | iters; }
};

void Spinner::go(const SpinMsg& m) {
  charm::charge(20e-3);
  if (m.iters > 1) {
    charm::ArrayProxy<Spinner> self(collection_id());
    self[index()].send<&Spinner::go>(SpinMsg{m.iters - 1});
  }
}

TEST(PowerManager, DvfsConstrainsTemperature) {
  auto run = [](power::Policy policy) {
    sim::Machine machine(sim::MachineConfig{4, {}, 4});
    Runtime rt(machine);
    auto arr = ArrayProxy<Spinner>::create(rt);
    for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
    power::Manager pm(rt, /*period=*/0.25);
    pm.start(policy);
    rt.on_pe(0, [&] { arr.broadcast<&Spinner::go>(SpinMsg{1500}); });
    machine.run();
    pm.stop();
    return std::pair<double, double>(pm.max_temp_seen(), machine.max_pe_clock());
  };
  auto [t_base, time_base] = run(power::Policy::kNone);
  auto [t_dvfs, time_dvfs] = run(power::Policy::kNaiveDvfs);
  EXPECT_GT(t_base, 55.0) << "base run should exceed the threshold";
  EXPECT_LT(t_dvfs, t_base);
  EXPECT_LE(t_dvfs, 54.0) << "DVFS should hold near the 50C threshold";
  EXPECT_GT(time_dvfs, time_base) << "throttling costs time (Fig 4's penalty)";
}

TEST(ControlPoint, RangeClamped) {
  tuning::ControlPoint cp("pipeline", 1, 64, 8);
  cp.set_value(1000);
  EXPECT_EQ(cp.value(), 64);
  cp.set_value(-3);
  EXPECT_EQ(cp.value(), 1);
  EXPECT_THROW(tuning::ControlPoint("bad", 10, 5, 7), std::invalid_argument);
}

double unimodal_metric(int v, int best) {
  // Synthetic U-shaped step time with minimum at `best`.
  const double x = std::log2(static_cast<double>(v)) - std::log2(static_cast<double>(best));
  return 1.0 + x * x;
}

class TunerSweep : public ::testing::TestWithParam<int> {};

TEST_P(TunerSweep, FindsNearOptimalValueOnUnimodalMetric) {
  const int best = GetParam();
  tuning::ControlPoint cp("k", 1, 256, 4);
  tuning::Tuner tuner(cp);
  for (int step = 0; step < 400 && !tuner.converged(); ++step) {
    tuner.report(unimodal_metric(cp.value(), best));
  }
  ASSERT_TRUE(tuner.converged());
  // Within a factor of 2 of the optimum on a log-scale U-curve.
  EXPECT_LE(unimodal_metric(tuner.best_value(), best), unimodal_metric(best * 4, best));
  EXPECT_EQ(cp.value(), tuner.best_value());
}

INSTANTIATE_TEST_SUITE_P(Optima, TunerSweep, ::testing::Values(1, 4, 16, 64, 256));

TEST(Tuner, StaysPutWhenInitialIsOptimal) {
  tuning::ControlPoint cp("k", 1, 64, 8);
  tuning::Tuner tuner(cp);
  for (int step = 0; step < 200 && !tuner.converged(); ++step)
    tuner.report(unimodal_metric(cp.value(), 8));
  ASSERT_TRUE(tuner.converged());
  EXPECT_GE(cp.value(), 4);
  EXPECT_LE(cp.value(), 16);
}

}  // namespace
