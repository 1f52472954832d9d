// The figure benches' exit code: bench::check records a failed completion or
// validation check, and bench::finish() then names it on stderr and returns
// 1, so scripts/gate.py fails on an incomplete run instead of passing it.
// Numeric flags are parsed strictly: a malformed value exits 1 with the
// flag's error text instead of running with a silently truncated number.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

/// bench::parse_args over `args` (argv[0] prepended) with the fault flags as
/// the extra table (only the common table when `with_fault_flags` is false),
/// capturing stderr.
int parse(std::initializer_list<const char*> args, std::string* err,
          bool with_fault_flags = true) {
  std::vector<std::string> owned{"bench"};
  for (const char* a : args) owned.emplace_back(a);
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  const auto& extra = bench::fault_flags();
  testing::internal::CaptureStderr();
  const int rc = bench::parse_args(static_cast<int>(argv.size()), argv.data(),
                                   with_fault_flags ? extra.data() : nullptr,
                                   with_fault_flags ? extra.size() : 0);
  *err = testing::internal::GetCapturedStderr();
  return rc;
}

/// Resets every flag-set option to its default.
void reset_options() {
  bench::options() = bench::Options{};
  bench::fault_options() = bench::FaultOptions{};
}

TEST(BenchFlags, MalformedNumericValuesExitOneWithTheFlagsError) {
  struct Case {
    const char* arg;
    const char* error;
  };
  const Case cases[] = {
      {"--metrics=inf", "--metrics needs a positive interval in virtual seconds"},
      {"--metrics=2e-4ms", "--metrics needs a positive interval in virtual seconds"},
      {"--metrics=nan", "--metrics needs a positive interval in virtual seconds"},
      {"--metrics=1e999", "--metrics needs a positive interval in virtual seconds"},
      {"--mtbf=0.005s", "--mtbf needs a positive time in seconds"},
      {"--failures=2x", "--failures needs a positive count"},
      {"--failures=99999999999", "--failures needs a positive count"},
      {"--fault-seed=abc", "--fault-seed has an invalid value"},
      {"--fault-seed=-1", "--fault-seed has an invalid value"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.arg);
    reset_options();
    std::string err;
    EXPECT_EQ(parse({c.arg}, &err), 1);
    EXPECT_NE(err.find(c.error), std::string::npos) << err;
  }
  reset_options();
}

TEST(BenchFlags, ValidNumericValuesStillParse) {
  reset_options();
  std::string err;
  EXPECT_EQ(parse({"--metrics=2e-4", "--mtbf=0.005", "--failures=2",
                   "--fault-seed=18446744073709551615"},
                  &err),
            0)
      << err;
  EXPECT_TRUE(bench::options().metrics);
  EXPECT_EQ(bench::options().metrics_interval, 2e-4);
  EXPECT_EQ(bench::fault_options().mtbf, 0.005);
  EXPECT_EQ(bench::fault_options().failures, 2);
  EXPECT_EQ(bench::fault_options().fault_seed, UINT64_MAX);

  // The bare --metrics form keeps the default interval.
  reset_options();
  EXPECT_EQ(parse({"--metrics"}, &err), 0) << err;
  EXPECT_TRUE(bench::options().metrics);
  EXPECT_EQ(bench::options().metrics_interval, 1e-3);
  reset_options();
}

// A bench that does not pass fault_flags() cannot inject failures, so it
// rejects the fault flags like any other unknown argument.
TEST(BenchFlags, CommonTableAloneRejectsFaultFlags) {
  reset_options();
  std::string err;
  EXPECT_EQ(parse({"--mtbf=0.005"}, &err, /*with_fault_flags=*/false), 1);
  EXPECT_NE(err.find("unknown argument '--mtbf=0.005'"), std::string::npos) << err;
  EXPECT_EQ(bench::fault_options().mtbf, 0);
  reset_options();
}

// scale's and taskbench's --npes/--width/--steps/--grain flags parse through
// the same helpers.
TEST(BenchFlags, ParsePositiveRejectsOverflowAndNonPositive) {
  int n = 7;
  EXPECT_FALSE(bench::parse_positive("99999999999", &n));  // --npes=99999999999
  EXPECT_FALSE(bench::parse_positive("0", &n));
  EXPECT_FALSE(bench::parse_positive("-4", &n));
  EXPECT_FALSE(bench::parse_positive("8 ", &n));
  EXPECT_FALSE(bench::parse_positive("", &n));
  EXPECT_EQ(n, 7) << "a rejected value leaves the target untouched";
  EXPECT_TRUE(bench::parse_positive("65536", &n));
  EXPECT_EQ(n, 65536);

  double grain = 0;
  EXPECT_FALSE(bench::parse_positive("-1e-6", &grain));
  EXPECT_FALSE(bench::parse_positive("0", &grain));
  EXPECT_FALSE(bench::parse_positive("inf", &grain));
  EXPECT_TRUE(bench::parse_positive("1e-6", &grain));
  EXPECT_EQ(grain, 1e-6);
}

TEST(BenchFinish, FailedCheckReturnsOneAndNamesIt) {
  bench::failed_checks().clear();
  bench::check(true, "passing check");
  EXPECT_EQ(bench::finish(), 0);

  testing::internal::CaptureStderr();
  bench::check(false, "LeanMD run completed (P=8)");
  const int rc = bench::finish();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("check failed: LeanMD run completed (P=8)"), std::string::npos) << err;
  EXPECT_EQ(err.find("passing check"), std::string::npos) << err;
  bench::failed_checks().clear();
}

}  // namespace
