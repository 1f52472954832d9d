// The figure benches' exit code: bench::check records a failed completion or
// validation check, and bench::finish() then names it on stderr and returns
// 1, so scripts/gate.sh fails on an incomplete run instead of passing it.

#include <gtest/gtest.h>

#include <string>

#include "bench_common.hpp"

namespace {

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
