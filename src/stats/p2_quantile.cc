#include "stats/p2_quantile.h"

#include <algorithm>
#include <cassert>

namespace ispn::stats {

P2Quantile::P2Quantile(double q) : q_(q) {
  assert(q > 0.0 && q < 1.0);
  desired_ = {1 + 2 * q, 1 + 4 * q, 3 + 2 * q};
  increments_ = {q / 2, q, (1 + q) / 2};
}

double P2Quantile::parabolic(int i, double d) const {
  const auto k = static_cast<std::size_t>(i);
  const std::int64_t np = positions_[k + 1];
  const std::int64_t nm = positions_[k - 1];
  const std::int64_t n = positions_[k];
  const double hp = heights_[k + 1];
  const double hm = heights_[k - 1];
  const double h = heights_[k];
  return h + d / static_cast<double>(np - nm) *
                 ((static_cast<double>(n - nm) + d) * (hp - h) /
                      static_cast<double>(np - n) +
                  (static_cast<double>(np - n) - d) * (h - hm) /
                      static_cast<double>(n - nm));
}

double P2Quantile::linear(int i, double d) const {
  const auto j = static_cast<std::size_t>(i + static_cast<int>(d));
  const auto k = static_cast<std::size_t>(i);
  return heights_[k] + d * (heights_[j] - heights_[k]) /
                           static_cast<double>(positions_[j] - positions_[k]);
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    heights_[n_] = x;
    ++n_;
    if (n_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < 5; ++i) {
        positions_[i] = static_cast<std::int64_t>(i + 1);
      }
    }
    return;
  }
  ++n_;

  // Locate the cell containing x and clamp the extremes.  Below the
  // lowest marker: cell 0; at or above the highest: cell 3; otherwise the
  // number of leading middle markers at or below x.  Comparisons, not
  // branches: a NaN fails every test and lands in cell 0, unclamped.
  const bool below = x < heights_[0];
  const bool above = !below && x >= heights_[4];
  const bool c1 = x >= heights_[1];
  const bool c2 = c1 & (x >= heights_[2]);
  const bool c3 = c2 & (x >= heights_[3]);
  const int cell = above ? 3 : below ? 0 : int{c1} + int{c2} + int{c3};
  if (below) heights_[0] = x;
  if (above && heights_[4] < x) heights_[4] = x;

  for (std::size_t i = 1; i < 5; ++i) {
    positions_[i] += static_cast<std::int64_t>(static_cast<int>(i) > cell);
  }
  for (std::size_t i = 0; i < 3; ++i) desired_[i] += increments_[i];

  // Adjust the three middle markers.
  for (int i = 1; i <= 3; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const double d = desired_[k - 1] - static_cast<double>(positions_[k]);
    const std::int64_t gap_up = positions_[k + 1] - positions_[k];
    const std::int64_t gap_down = positions_[k - 1] - positions_[k];
    if ((d >= 1 && gap_up > 1) || (d <= -1 && gap_down < -1)) {
      const double step = d >= 0 ? 1 : -1;
      double candidate = parabolic(i, step);
      if (heights_[k - 1] < candidate && candidate < heights_[k + 1]) {
        heights_[k] = candidate;
      } else {
        heights_[k] = linear(i, step);
      }
      positions_[k] += d >= 0 ? 1 : -1;
    }
  }
}

double P2Quantile::value() const {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact on the few samples so far.
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<long>(n_));
    const auto rank = static_cast<std::size_t>(
        q_ * static_cast<double>(n_ - 1) + 0.5);
    return sorted[std::min<std::size_t>(rank, n_ - 1)];
  }
  return heights_[2];
}

}  // namespace ispn::stats
