#include "common/backoff.h"

#include <gtest/gtest.h>

namespace youtopia {
namespace {

using std::chrono::milliseconds;

TEST(BackoffTest, DoublesPerCompletedAttemptUpToCap) {
  EXPECT_EQ(ExponentialBackoff(milliseconds(2), milliseconds(16), 0),
            milliseconds(2));
  EXPECT_EQ(ExponentialBackoff(milliseconds(2), milliseconds(16), 1),
            milliseconds(4));
  EXPECT_EQ(ExponentialBackoff(milliseconds(2), milliseconds(16), 2),
            milliseconds(8));
  EXPECT_EQ(ExponentialBackoff(milliseconds(2), milliseconds(16), 3),
            milliseconds(16));
  EXPECT_EQ(ExponentialBackoff(milliseconds(2), milliseconds(16), 100),
            milliseconds(16));
}

TEST(BackoffTest, FloorsIntervalAtOneMillisecond) {
  EXPECT_EQ(ExponentialBackoff(milliseconds(0), milliseconds(0), 0),
            milliseconds(1));
  EXPECT_EQ(ExponentialBackoff(milliseconds(-5), milliseconds(8), 0),
            milliseconds(1));
  EXPECT_EQ(ExponentialBackoff(milliseconds(0), milliseconds(8), 2),
            milliseconds(4));
}

TEST(BackoffTest, CapNeverClampsBelowInterval) {
  EXPECT_EQ(ExponentialBackoff(milliseconds(500), milliseconds(64), 0),
            milliseconds(500));
  EXPECT_EQ(ExponentialBackoff(milliseconds(500), milliseconds(64), 5),
            milliseconds(500));
}

}  // namespace
}  // namespace youtopia
