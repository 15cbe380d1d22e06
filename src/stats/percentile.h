// Exact-percentile sample recorder.
//
// The paper reports per-flow mean and 99.9th-percentile queueing delays over
// 10-minute runs (~50k packets per flow), so storing every sample is cheap
// and gives exact order statistics.  Percentile queries sort a scratch copy
// lazily and cache it until the next insertion.
//
// Most series never see a sample (every net::FlowStats carries two, but
// only the network's recording sink fills them), so the state lives behind
// a pointer allocated on the first add(): an empty series is one null
// pointer and answers every query as a default OnlineStats would.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/online_stats.h"

namespace ispn::stats {

/// Records a series of observations; answers mean / percentile / max queries.
class SampleSeries {
 public:
  SampleSeries();

  /// Pre-reserves capacity to avoid reallocation in hot loops.
  explicit SampleSeries(std::size_t reserve);

  SampleSeries(const SampleSeries& other);
  SampleSeries& operator=(const SampleSeries& other);
  SampleSeries(SampleSeries&& other) noexcept;
  SampleSeries& operator=(SampleSeries&& other) noexcept;
  ~SampleSeries();

  /// Adds one observation.
  void add(double x);

  /// Number of observations recorded.
  [[nodiscard]] std::size_t count() const { return samples().size(); }
  [[nodiscard]] bool empty() const { return count() == 0; }

  [[nodiscard]] double mean() const { return summary().mean(); }
  [[nodiscard]] double stddev() const { return summary().stddev(); }
  [[nodiscard]] double min() const { return summary().min(); }
  [[nodiscard]] double max() const { return summary().max(); }

  /// Exact q-quantile with q in [0, 1] using the nearest-rank method
  /// (rank = ceil(q * n), 1-based).  Returns 0 on an empty series.
  [[nodiscard]] double percentile(double q) const;

  /// Convenience for the paper's headline statistic.
  [[nodiscard]] double p999() const { return percentile(0.999); }

  /// Read-only access to raw samples (ordered by insertion).
  [[nodiscard]] const std::vector<double>& samples() const;

  /// Summary accumulator (mean/max without sorting).
  [[nodiscard]] const OnlineStats& summary() const;

  /// Drops every observation (an allocated series keeps its capacity).
  void reset();

 private:
  struct State;
  std::unique_ptr<State> state_;  // null until the first add()
};

}  // namespace ispn::stats
