#include "stats/p2_quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random.h"
#include "stats/percentile.h"

namespace ispn::stats {
namespace {

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile p(0.5);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.value(), 3.0);
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.value(), 2.0);  // exact median of {1,2,3}
}

TEST(P2Quantile, MedianOfUniform) {
  P2Quantile p(0.5);
  sim::Rng rng(1);
  for (int i = 0; i < 100000; ++i) p.add(rng.uniform(0.0, 10.0));
  EXPECT_NEAR(p.value(), 5.0, 0.15);
}

class P2Accuracy : public ::testing::TestWithParam<double> {};

TEST_P(P2Accuracy, TracksExactQuantileOnExponential) {
  const double q = GetParam();
  P2Quantile p2(q);
  SampleSeries exact;
  sim::Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.exponential(1.0);
    p2.add(x);
    exact.add(x);
  }
  const double truth = exact.percentile(q);
  EXPECT_NEAR(p2.value() / truth, 1.0, 0.08) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2Accuracy,
                         ::testing::Values(0.5, 0.9, 0.99));

TEST(P2Quantile, MonotoneNondecreasingForSortedInput) {
  // After the five-sample warm-up (where the estimate jumps from the
  // exact small-n quantile to the middle marker), increasing input must
  // yield non-decreasing estimates.
  P2Quantile p(0.9);
  double prev = -1;
  for (int i = 0; i < 1000; ++i) {
    p.add(static_cast<double>(i));
    if (i < 5) continue;
    const double v = p.value();
    EXPECT_GE(v, prev - 1e-9) << "i=" << i;
    prev = v;
  }
}

TEST(P2Quantile, BoundedByObservedRange) {
  P2Quantile p(0.99);
  sim::Rng rng(3);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal();
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    p.add(x);
    EXPECT_GE(p.value(), lo - 1e-9);
    EXPECT_LE(p.value(), hi + 1e-9);
  }
}

/// The estimator as first written (double marker positions, a search loop
/// for the cell, all five desired positions advanced), kept verbatim as the
/// reference the current implementation must match bit for bit.
class ReferenceP2 {
 public:
  explicit ReferenceP2(double q) : q_(q) {
    desired_ = {1, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5};
    increments_ = {0, q / 2, q, (1 + q) / 2, 1};
  }

  void add(double x) {
    if (n_ < 5) {
      heights_[n_] = x;
      ++n_;
      if (n_ == 5) {
        std::sort(heights_.begin(), heights_.end());
        for (std::size_t i = 0; i < 5; ++i) {
          positions_[i] = static_cast<double>(i + 1);
        }
      }
      return;
    }
    ++n_;
    int cell;
    if (x < heights_[0]) {
      heights_[0] = x;
      cell = 0;
    } else if (x >= heights_[4]) {
      heights_[4] = std::max(heights_[4], x);
      cell = 3;
    } else {
      cell = 0;
      while (cell < 3 && x >= heights_[static_cast<std::size_t>(cell + 1)]) {
        ++cell;
      }
    }
    for (int i = cell + 1; i < 5; ++i) {
      positions_[static_cast<std::size_t>(i)] += 1;
    }
    for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];
    for (int i = 1; i <= 3; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const double d = desired_[k] - positions_[k];
      const double gap_up = positions_[k + 1] - positions_[k];
      const double gap_down = positions_[k - 1] - positions_[k];
      if ((d >= 1 && gap_up > 1) || (d <= -1 && gap_down < -1)) {
        const double step = d >= 0 ? 1 : -1;
        double candidate = parabolic(i, step);
        if (heights_[k - 1] < candidate && candidate < heights_[k + 1]) {
          heights_[k] = candidate;
        } else {
          heights_[k] = linear(i, step);
        }
        positions_[k] += step;
      }
    }
  }

  [[nodiscard]] double value() const {
    if (n_ == 0) return 0.0;
    if (n_ < 5) {
      std::array<double, 5> sorted = heights_;
      std::sort(sorted.begin(), sorted.begin() + static_cast<long>(n_));
      const auto rank = static_cast<std::size_t>(
          q_ * static_cast<double>(n_ - 1) + 0.5);
      return sorted[std::min<std::size_t>(rank, n_ - 1)];
    }
    return heights_[2];
  }

 private:
  [[nodiscard]] double parabolic(int i, double d) const {
    const double np = positions_[static_cast<std::size_t>(i + 1)];
    const double nm = positions_[static_cast<std::size_t>(i - 1)];
    const double n = positions_[static_cast<std::size_t>(i)];
    const double hp = heights_[static_cast<std::size_t>(i + 1)];
    const double hm = heights_[static_cast<std::size_t>(i - 1)];
    const double h = heights_[static_cast<std::size_t>(i)];
    return h + d / (np - nm) *
                   ((n - nm + d) * (hp - h) / (np - n) +
                    (np - n - d) * (h - hm) / (n - nm));
  }
  [[nodiscard]] double linear(int i, double d) const {
    const auto j = static_cast<std::size_t>(i + static_cast<int>(d));
    const auto k = static_cast<std::size_t>(i);
    return heights_[k] + d * (heights_[j] - heights_[k]) /
                             (positions_[j] - positions_[k]);
  }

  double q_;
  std::uint64_t n_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
};

/// Feeds `xs` to both estimators for every tracked quantile and requires
/// identical bits after each sample.
void expect_bit_exact(const std::vector<double>& xs, const char* what) {
  for (const double q : {0.05, 0.5, 0.9, 0.99, 0.999}) {
    P2Quantile fast(q);
    ReferenceP2 ref(q);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      fast.add(xs[i]);
      ref.add(xs[i]);
      if (std::bit_cast<std::uint64_t>(fast.value()) !=
          std::bit_cast<std::uint64_t>(ref.value())) {
        ADD_FAILURE() << what << ": q=" << q << " diverged at sample " << i
                      << " (" << fast.value() << " vs " << ref.value() << ")";
        return;
      }
    }
  }
}

TEST(P2Quantile, BitExactAgainstReferenceLoop) {
  sim::Rng rng(11);
  const std::size_t n = 20000;
  std::vector<double> uniform, expo, ties, zeros, up, down, dups, normal;
  for (std::size_t i = 0; i < n; ++i) {
    uniform.push_back(rng.uniform(0.0, 10.0));
    expo.push_back(rng.exponential(2e-3));
    ties.push_back(static_cast<double>(rng.below(3)));
    zeros.push_back(i % 7 == 0 ? -0.0 : 0.0);
    up.push_back(static_cast<double>(i) * 0.25);
    down.push_back(1e3 - static_cast<double>(i));
    normal.push_back(rng.normal());
  }
  for (std::size_t i = 0; i < n / 8; ++i) {
    const double x = rng.exponential(1.0);
    for (int r = 0; r < 8; ++r) dups.push_back(x);
  }
  expect_bit_exact(uniform, "uniform");
  expect_bit_exact(expo, "exponential");
  expect_bit_exact(ties, "three-valued ties");
  expect_bit_exact(zeros, "signed zeros");
  expect_bit_exact(up, "monotone increasing");
  expect_bit_exact(down, "monotone decreasing");
  expect_bit_exact(dups, "duplicate runs");
  expect_bit_exact(normal, "normal");

  // A NaN after the warm-up falls into cell 0 without clamping; one
  // inside the warm-up lands among the sorted markers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> late_nan = expo;
  late_nan[1000] = nan;
  expect_bit_exact(late_nan, "NaN after warm-up");
  std::vector<double> early_nan = uniform;
  early_nan[2] = nan;
  expect_bit_exact(early_nan, "NaN in warm-up");
}

TEST(P2Quantile, CountTracksSamples) {
  P2Quantile p(0.5);
  for (int i = 0; i < 42; ++i) p.add(1.0);
  EXPECT_EQ(p.count(), 42u);
  EXPECT_DOUBLE_EQ(p.quantile(), 0.5);
}

}  // namespace
}  // namespace ispn::stats
