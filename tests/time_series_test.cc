#include "src/common/time_series.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"

namespace ursa {
namespace {

// A tracker that keeps its change history, for the windowed queries.
StepTracker WithHistory() {
  StepTracker t;
  t.KeepHistory();
  return t;
}

TEST(StepTracker, EmptyIntegralIsZero) {
  StepTracker t = WithHistory();
  EXPECT_DOUBLE_EQ(t.IntegralTo(100.0), 0.0);
  EXPECT_DOUBLE_EQ(t.Integral(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(t.Average(0.0, 100.0), 0.0);
}

TEST(StepTracker, ConstantLevel) {
  StepTracker t = WithHistory();
  t.Set(0.0, 4.0);
  EXPECT_DOUBLE_EQ(t.Integral(0.0, 10.0), 40.0);
  EXPECT_DOUBLE_EQ(t.Average(2.0, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(t.Max(0.0, 10.0), 4.0);
}

TEST(StepTracker, StepChangeSplitsIntegral) {
  StepTracker t = WithHistory();
  t.Set(0.0, 2.0);
  t.Set(5.0, 6.0);
  EXPECT_DOUBLE_EQ(t.Integral(0.0, 10.0), 2.0 * 5 + 6.0 * 5);
  EXPECT_DOUBLE_EQ(t.Integral(4.0, 6.0), 2.0 + 6.0);
  EXPECT_DOUBLE_EQ(t.Max(0.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(t.Max(0.0, 6.0), 6.0);
}

TEST(StepTracker, ValueBeforeFirstChangeIsZero) {
  StepTracker t = WithHistory();
  t.Set(10.0, 5.0);
  EXPECT_DOUBLE_EQ(t.Integral(0.0, 20.0), 50.0);
}

TEST(StepTracker, AddAccumulates) {
  StepTracker t = WithHistory();
  t.Add(0.0, 1.0);
  t.Add(1.0, 1.0);
  t.Add(2.0, -2.0);
  EXPECT_DOUBLE_EQ(t.current(), 0.0);
  EXPECT_DOUBLE_EQ(t.Integral(0.0, 3.0), 1.0 + 2.0 + 0.0);
}

TEST(StepTracker, SameTimeOverrides) {
  StepTracker t = WithHistory();
  t.Set(1.0, 3.0);
  t.Set(1.0, 7.0);
  EXPECT_DOUBLE_EQ(t.Integral(1.0, 2.0), 7.0);
}

TEST(StepTracker, ResampleAveragesWithinBuckets) {
  StepTracker t = WithHistory();
  t.Set(0.0, 0.0);
  t.Set(0.5, 10.0);  // Half the first bucket at 10.
  t.Set(1.0, 2.0);
  const std::vector<double> r = t.Resample(0.0, 2.0, 1.0);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 5.0);
  EXPECT_DOUBLE_EQ(r[1], 2.0);
}

// Property: integral is additive over adjacent windows, and resampled means
// integrate back to the exact integral.
class StepTrackerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StepTrackerProperty, IntegralAdditivityAndResampleConsistency) {
  Rng rng(GetParam());
  StepTracker t = WithHistory();
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    now += rng.Uniform(0.0, 2.0);
    t.Set(now, rng.Uniform(0.0, 32.0));
  }
  const double end = now + 1.0;
  const double mid = rng.Uniform(0.0, end);
  EXPECT_NEAR(t.Integral(0.0, end), t.Integral(0.0, mid) + t.Integral(mid, end), 1e-6);

  const double step = 0.25;
  const auto samples = t.Resample(0.0, end, step);
  double resampled_integral = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double lo = static_cast<double>(i) * step;
    const double hi = std::min(lo + step, end);
    resampled_integral += samples[i] * (hi - lo);
  }
  EXPECT_NEAR(resampled_integral, t.Integral(0.0, end), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepTrackerProperty, ::testing::Range<uint64_t>(1, 12));

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Fuzz: the running integral IntegralTo(t) equals the history's
// Integral(0, t) bit for bit, after every step of a random Set/Add sequence
// full of same-instant overwrites, repeated values and changes that return
// to an earlier value, for t at the last change and past it. A tracker
// without history gives the same sums and holds no change points.
class RunningIntegralFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RunningIntegralFuzz, MatchesHistoryBitForBit) {
  Rng rng(GetParam());
  StepTracker history = WithHistory();
  StepTracker running;
  const double pool[] = {0.0, 1.0, 3.0, 0.1, 7.25, 1e9 / 3.0};
  double now = 0.0;
  for (int i = 0; i < 2000; ++i) {
    // A third of the steps stay at the same instant.
    if (rng.UniformInt(uint64_t{3}) != 0) {
      now += rng.UniformInt(uint64_t{4}) == 0 ? 0.1 : rng.Uniform(0.0, 2.0);
    }
    const uint64_t op = rng.UniformInt(uint64_t{4});
    double value = 0.0;
    if (op == 0) {
      value = history.current();  // Equal value: no change.
    } else if (op == 1) {
      value = pool[rng.UniformInt(uint64_t{6})];
    } else {
      value = rng.Uniform(-1.0, 40.0);
    }
    if (op == 3) {
      const double delta = value - history.current();
      history.Add(now, delta);
      running.Add(now, delta);
    } else {
      history.Set(now, value);
      running.Set(now, value);
    }
    ASSERT_TRUE(BitEqual(history.current(), running.current()));
    for (const double t : {now, now + rng.Uniform(0.0, 3.0)}) {
      const double reference = history.Integral(0.0, t);
      ASSERT_TRUE(BitEqual(history.IntegralTo(t), reference))
          << "step " << i << " t=" << t << ": " << history.IntegralTo(t) << " vs "
          << reference;
      ASSERT_TRUE(BitEqual(running.IntegralTo(t), reference)) << "step " << i;
    }
  }
  EXPECT_GT(history.num_changes(), 0u);
  EXPECT_EQ(running.num_changes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningIntegralFuzz, ::testing::Range<uint64_t>(1, 21));

TEST(StepTrackerDeathTest, IntegralBeforeLastChangeFails) {
  StepTracker t;
  t.Set(1.0, 2.0);
  t.Set(5.0, 3.0);
  EXPECT_DOUBLE_EQ(t.IntegralTo(5.0), 8.0);
  EXPECT_DEATH(t.IntegralTo(4.0), "before the tracker's last change");
}

TEST(StepTrackerDeathTest, WindowedQueryNeedsHistory) {
  StepTracker t;
  t.Set(1.0, 2.0);
  EXPECT_DEATH(t.Integral(0.0, 2.0), "without history");
  EXPECT_DEATH(t.Max(0.0, 2.0), "without history");
  StepTracker late;
  late.Set(1.0, 2.0);
  EXPECT_DEATH(late.KeepHistory(), "after the first change");
}

}  // namespace
}  // namespace ursa
