#include "stats/percentile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ispn::stats {

struct SampleSeries::State {
  std::vector<double> samples;
  OnlineStats summary;
  std::vector<double> sorted;  // lazily built cache
  bool sorted_valid = false;
};

namespace {
const std::vector<double> kNoSamples;
const OnlineStats kNoSummary;
}  // namespace

SampleSeries::SampleSeries() = default;

SampleSeries::SampleSeries(std::size_t reserve)
    : state_(std::make_unique<State>()) {
  state_->samples.reserve(reserve);
}

SampleSeries::SampleSeries(const SampleSeries& other)
    : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr) {
}

SampleSeries& SampleSeries::operator=(const SampleSeries& other) {
  if (this != &other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }
  return *this;
}

SampleSeries::SampleSeries(SampleSeries&& other) noexcept = default;
SampleSeries& SampleSeries::operator=(SampleSeries&& other) noexcept = default;
SampleSeries::~SampleSeries() = default;

void SampleSeries::add(double x) {
  if (!state_) state_ = std::make_unique<State>();
  state_->samples.push_back(x);
  state_->summary.add(x);
  state_->sorted_valid = false;
}

const std::vector<double>& SampleSeries::samples() const {
  return state_ ? state_->samples : kNoSamples;
}

const OnlineStats& SampleSeries::summary() const {
  return state_ ? state_->summary : kNoSummary;
}

double SampleSeries::percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (empty()) return 0.0;
  State& s = *state_;
  if (!s.sorted_valid) {
    s.sorted = s.samples;
    std::sort(s.sorted.begin(), s.sorted.end());
    s.sorted_valid = true;
  }
  const auto n = s.sorted.size();
  // Nearest-rank: smallest value with at least ceil(q*n) samples <= it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return s.sorted[std::min(idx, n - 1)];
}

void SampleSeries::reset() {
  if (!state_) return;
  state_->samples.clear();
  state_->summary.reset();
  state_->sorted.clear();
  state_->sorted_valid = false;
}

}  // namespace ispn::stats
