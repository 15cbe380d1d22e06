#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "stats/ewma.h"
#include "stats/online_stats.h"
#include "stats/percentile.h"
#include "stats/rate_meter.h"
#include "stats/windowed_max.h"

namespace ispn::stats {
namespace {

// ------------------------------------------------------------ OnlineStats --

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(OnlineStats, MeanMinMax) {
  OnlineStats s;
  for (double x : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.8);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(OnlineStats, VarianceMatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example
  EXPECT_NEAR(s.sample_variance(), 4.0 * 8 / 7, 1e-12);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, a, b;
  sim::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(5.0);
  s.reset();
  EXPECT_TRUE(s.empty());
}

// ----------------------------------------------------------- SampleSeries --

TEST(SampleSeries, PercentilesExactOnKnownData) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SampleSeries, P999PicksTail) {
  SampleSeries s;
  // 11 outliers in 10011 samples put the 99.9th percentile (nearest rank
  // 10001) exactly at the first outlier.
  for (int i = 0; i < 10000; ++i) s.add(1.0);
  for (int i = 0; i < 11; ++i) s.add(100.0);
  EXPECT_DOUBLE_EQ(s.p999(), 100.0);
}

TEST(SampleSeries, InsertAfterQueryInvalidatesCache) {
  SampleSeries s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 2.0);
}

TEST(SampleSeries, EmptyReturnsZero) {
  SampleSeries s;
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

/// An empty series answers every query exactly as an empty OnlineStats.
void expect_empty(const SampleSeries& s, const char* what) {
  EXPECT_TRUE(s.empty()) << what;
  EXPECT_EQ(s.count(), 0u) << what;
  EXPECT_TRUE(s.samples().empty()) << what;
  EXPECT_EQ(s.summary().count(), 0u) << what;
  EXPECT_EQ(s.mean(), 0.0) << what;
  EXPECT_EQ(s.stddev(), 0.0) << what;
  EXPECT_EQ(s.min(), std::numeric_limits<double>::infinity()) << what;
  EXPECT_EQ(s.max(), -std::numeric_limits<double>::infinity()) << what;
  EXPECT_EQ(s.percentile(0.0), 0.0) << what;
  EXPECT_EQ(s.percentile(1.0), 0.0) << what;
  EXPECT_EQ(s.p999(), 0.0) << what;
}

TEST(SampleSeries, EmptyAnswersLikeAnEmptySummary) {
  expect_empty(SampleSeries{}, "default");
  expect_empty(SampleSeries{64}, "reserving constructor");
  const SampleSeries copy{SampleSeries{}};
  expect_empty(copy, "copy of empty");
}

TEST(SampleSeries, ReservingConstructorRecordsNormally) {
  SampleSeries s(4);
  for (const double x : {3.0, 1.0, 2.0, 5.0, 4.0}) s.add(x);  // past reserve
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.samples(), (std::vector<double>{3.0, 1.0, 2.0, 5.0, 4.0}));
}

TEST(SampleSeries, CopyIsDeepAndMoveTransfers) {
  SampleSeries a;
  for (const double x : {2.0, 4.0, 6.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 6.0);  // builds the sorted cache

  SampleSeries b = a;
  b.add(10.0);
  EXPECT_EQ(a.count(), 3u);  // the copy owns its own samples
  EXPECT_DOUBLE_EQ(a.percentile(1.0), 6.0);
  EXPECT_DOUBLE_EQ(b.percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(b.mean(), 5.5);

  SampleSeries c;
  c = a;
  EXPECT_EQ(c.samples(), a.samples());
  c = SampleSeries{};  // assigning an empty series empties it
  expect_empty(c, "assigned empty");
  c = a;
  const SampleSeries& self = c;
  c = self;  // self-assignment keeps the samples
  EXPECT_EQ(c.count(), 3u);

  SampleSeries d = std::move(b);
  EXPECT_EQ(d.count(), 4u);
  EXPECT_DOUBLE_EQ(d.max(), 10.0);
  SampleSeries e;
  e = std::move(d);
  EXPECT_EQ(e.count(), 4u);
  EXPECT_DOUBLE_EQ(e.percentile(0.5), 4.0);
}

TEST(SampleSeries, ResetEmptiesAndRecordsAgain) {
  SampleSeries s;
  s.reset();  // never-used series
  expect_empty(s, "reset before use");
  for (const double x : {7.0, 8.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 8.0);
  s.reset();
  expect_empty(s, "reset after use");
  s.add(1.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.5);
}

TEST(SampleSeries, MeanMatchesSummary) {
  SampleSeries s;
  sim::Rng rng(3);
  OnlineStats ref;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.exponential(2.0);
    s.add(x);
    ref.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), ref.mean());
  EXPECT_DOUBLE_EQ(s.max(), ref.max());
}

TEST(SampleSeries, ResetClears) {
  SampleSeries s;
  s.add(1.0);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

// ------------------------------------------------------------------- Ewma --

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.25);
  EXPECT_FALSE(e.primed());
  e.update(8.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 8.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.125);
  for (int i = 0; i < 500; ++i) e.update(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-9);
}

TEST(Ewma, UpdateFormula) {
  Ewma e(0.5);
  e.update(0.0);
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(Ewma, ResetUnprimes) {
  Ewma e(0.5);
  e.update(4.0);
  e.reset();
  EXPECT_FALSE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
}

// ------------------------------------------------------------ WindowedMax --

TEST(WindowedMax, ReportsMaxWithinWindow) {
  WindowedMax w(10.0, 10);
  w.add(0.5, 3.0);
  w.add(1.5, 7.0);
  w.add(2.5, 5.0);
  EXPECT_DOUBLE_EQ(w.max(3.0), 7.0);
}

TEST(WindowedMax, OldSamplesExpire) {
  WindowedMax w(10.0, 10);
  w.add(0.5, 100.0);
  EXPECT_DOUBLE_EQ(w.max(1.0), 100.0);
  // After more than the window has passed, the old max is gone.
  EXPECT_DOUBLE_EQ(w.max(15.0), 0.0);
}

TEST(WindowedMax, RecentSurvivesPartialRotation) {
  WindowedMax w(10.0, 10);
  w.add(9.5, 42.0);
  EXPECT_DOUBLE_EQ(w.max(12.0), 42.0);
}

// -------------------------------------------------------------- RateMeter --

TEST(RateMeter, MeanRateOverWindow) {
  RateMeter m(10.0, 10);
  // 1000 bits per second-epoch for 10 epochs: querying within the last
  // epoch sees all of them (1000 b/s); querying after rotation drops the
  // oldest epoch (sliding window).
  for (int i = 0; i < 10; ++i) m.add(0.5 + i, 1000.0);
  EXPECT_NEAR(m.mean_rate(9.9), 1000.0, 1e-6);
  EXPECT_NEAR(m.mean_rate(10.5), 900.0, 1e-6);
}

TEST(RateMeter, PeakRateSeesBurstyEpoch) {
  RateMeter m(10.0, 10);
  m.add(0.5, 5000.0);  // all in one 1-second epoch
  EXPECT_NEAR(m.peak_rate(1.0), 5000.0, 1e-6);
  EXPECT_NEAR(m.mean_rate(1.0), 500.0, 1e-6);
}

TEST(RateMeter, ExpiresOldTraffic) {
  RateMeter m(10.0, 10);
  m.add(0.5, 5000.0);
  EXPECT_NEAR(m.mean_rate(20.0), 0.0, 1e-9);
  EXPECT_NEAR(m.peak_rate(20.0), 0.0, 1e-9);
}

}  // namespace
}  // namespace ispn::stats
