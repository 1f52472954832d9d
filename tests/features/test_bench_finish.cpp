// The figure benches' exit code: bench::check records a failed completion or
// validation check, and bench::finish() then names it on stderr and returns
// 1, so scripts/gate.sh fails on an incomplete run instead of passing it.
// Numeric flags are parsed strictly: a malformed value exits 1 with the
// flag's error text instead of running with a silently truncated number.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

/// bench::parse_args over `args` (argv[0] prepended), capturing stderr.
int parse(std::initializer_list<const char*> args, std::string* err) {
  std::vector<std::string> owned{"bench"};
  for (const char* a : args) owned.emplace_back(a);
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  testing::internal::CaptureStderr();
  const int rc = bench::parse_args(static_cast<int>(argv.size()), argv.data());
  *err = testing::internal::GetCapturedStderr();
  return rc;
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
    bench::options() = bench::Options{};
    std::string err;
    EXPECT_EQ(parse({c.arg}, &err), 1);
    EXPECT_NE(err.find(c.error), std::string::npos) << err;
  }
  bench::options() = bench::Options{};
}

TEST(BenchFlags, ValidNumericValuesStillParse) {
  bench::options() = bench::Options{};
  std::string err;
  EXPECT_EQ(parse({"--metrics=2e-4", "--mtbf=0.005", "--failures=2",
                   "--fault-seed=18446744073709551615"},
                  &err),
            0)
      << err;
  EXPECT_TRUE(bench::options().metrics);
  EXPECT_EQ(bench::options().metrics_interval, 2e-4);
  EXPECT_EQ(bench::options().mtbf, 0.005);
  EXPECT_EQ(bench::options().failures, 2);
  EXPECT_EQ(bench::options().fault_seed, UINT64_MAX);

  // The bare --metrics form keeps the default interval.
  bench::options() = bench::Options{};
  EXPECT_EQ(parse({"--metrics"}, &err), 0) << err;
  EXPECT_TRUE(bench::options().metrics);
  EXPECT_EQ(bench::options().metrics_interval, 1e-3);
  bench::options() = bench::Options{};
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
