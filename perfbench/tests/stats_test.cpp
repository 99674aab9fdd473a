// Tests of the benchmark's statistics helpers (src/stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  const auto q3 = quartiles({10, 30, 20});
  EXPECT_DOUBLE_EQ(q3[0], 10);
  EXPECT_DOUBLE_EQ(q3[1], 20);
  EXPECT_DOUBLE_EQ(q3[2], 30);
  const auto q2 = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q2[0], 0.75);
  EXPECT_DOUBLE_EQ(q2[1], 1.5);
  EXPECT_DOUBLE_EQ(q2[2], 2.25);
}

TEST(Quartiles, RelativeSpreadIsIqrOverMedian) {
  EXPECT_DOUBLE_EQ(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(relative_spread({2, 2, 2, 2}), 0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  // p90 of 1..99 is 90 (rank ceil(89.1) = 90): nine values lie beyond.
  EXPECT_FALSE(tail_percentile(v, 0.9).has_value());
  v.push_back(100);
  // p90 of 1..100 is 90: ten values (91..100) lie beyond.
  ASSERT_TRUE(tail_percentile(v, 0.9).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(v, 0.9), 90);
  EXPECT_TRUE(tail_percentile(v, 0.5, 50).has_value());
  EXPECT_FALSE(tail_percentile(v, 0.5, 51).has_value());
}

TEST(TailPercentile, TiesAtThePercentileAreNotBeyond) {
  std::vector<double> v(100, 1.0);
  EXPECT_FALSE(tail_percentile(v, 0.9).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.9).has_value());
}

TEST(PairedRatio, MediansPerPairRatios) {
  // Drift doubles both members of the later pairs; the ratio stays 2.
  EXPECT_DOUBLE_EQ(paired_ratio_median({2, 4, 8}, {1, 2, 4}), 2);
  // Pairs form in order; the unpaired trailing sample is ignored.
  EXPECT_DOUBLE_EQ(paired_ratio_median({3, 6, 100}, {1, 2}), 3);
  EXPECT_DOUBLE_EQ(paired_ratio_median({1, 1, 9}, {1, 1, 1}), 1);
}

TEST(MedianUntilRepeats, StopsOnceABatchRepeats) {
  int calls = 0;
  const double m = median_until_repeats([&] {
    ++calls;
    return 1.0;
  });
  EXPECT_DOUBLE_EQ(m, 1.0);
  EXPECT_EQ(calls, 20);  // two batches: the second repeats the first
}

TEST(MedianUntilRepeats, GivesUpAfterSixBatches) {
  int calls = 0;
  const double m = median_until_repeats([&] {
    ++calls;
    return static_cast<double>(1 << (calls / 10));  // doubles every batch
  });
  EXPECT_EQ(calls, 60);
  EXPECT_GT(m, 0);
}

}  // namespace
}  // namespace perfbench
