// P² (piecewise-parabolic) streaming quantile estimator
// (Jain & Chlamtac, CACM 1985).
//
// SampleSeries keeps every observation for exact percentiles, which is
// fine for 600-second runs but not for always-on deployments.  P² tracks
// one quantile in O(1) space with five markers whose positions adjust by
// parabolic interpolation.  Used where a switch would track its own
// delay quantiles for measurement-based admission over long horizons.

#pragma once

#include <array>
#include <cstdint>

namespace ispn::stats {

class P2Quantile {
 public:
  /// Tracks the q-quantile, q in (0, 1).
  explicit P2Quantile(double q);

  void add(double x);

  /// Current estimate; exact until five samples have been seen.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double quantile() const { return q_; }

 private:
  [[nodiscard]] double parabolic(int i, double d) const;
  [[nodiscard]] double linear(int i, double d) const;

  double q_;
  std::uint64_t n_ = 0;
  std::array<double, 5> heights_{};          // marker values
  // Actual marker positions (1-based).  They only ever move by whole
  // steps, so they are integers, converted to double inside the formulas
  // (exactly: positions stay far below 2^53).
  std::array<std::int64_t, 5> positions_{};
  // Desired positions and their per-sample increments, middle markers
  // 1..3 only: the end markers' desired positions are never read.
  std::array<double, 3> desired_{};
  std::array<double, 3> increments_{};
};

}  // namespace ispn::stats
