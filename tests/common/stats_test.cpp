#include "mdtask/common/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace mdtask {
namespace {

TEST(MeanTest, AveragesAndEmptyIsZero) {
  const std::vector<double> xs = {1.0, 2.0, 3.5, -4.0, 10.0, 2.25};
  EXPECT_DOUBLE_EQ(mean(xs), 14.75 / 6.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(PercentileTest, MedianOfOddCount) {
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> xs = {5.0, 1.0, 9.0, 3.0};
  EXPECT_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_EQ(percentile(xs, 100.0), 9.0);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  // sorted: 0, 10 -> p50 = 5
  EXPECT_EQ(percentile({10.0, 0.0}, 50.0), 5.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

}  // namespace
}  // namespace mdtask
