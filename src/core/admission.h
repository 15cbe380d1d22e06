// Admission control (paper §9).
//
// Two criteria gate every admission on every link of the flow's path:
//
//  (1) datagram quota: the flow's rate r plus the (measured or committed)
//      real-time utilisation ν̂ must leave at least a 10% share for
//      datagram traffic:   r + ν̂·μ < 0.9·μ ;
//  (2) delay protection: admitting a worst-case burst b must not push any
//      equal-or-lower-priority class j over its per-hop target D_j:
//          b < (D_j − d̂_j) · (μ − ν̂·μ − r).
//
// Guaranteed requests are "higher in priority than all levels", so (2) is
// evaluated against every predicted class; they additionally may not
// oversubscribe the WFQ clock rates past the quota.
//
// ν̂ and d̂_j come either from live measurement (LinkMeasurement — the
// paper's proposal) or from the sum of committed parameters (the
// traditional alternative the paper argues against; kept for the
// bench_utilization / bench_admission comparisons).

#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/flowspec.h"
#include "core/measurement.h"

namespace ispn::core {

/// A directed link (from, to).
using LinkId = std::pair<net::NodeId, net::NodeId>;

/// The cheapest (lowest-priority) class whose per-hop target D_j is within
/// `per_hop`, given ascending `targets`; -1 when even class 0 misses it.
[[nodiscard]] int cheapest_class(const std::vector<sim::Duration>& targets,
                                 sim::Duration per_hop);

class AdmissionController {
 public:
  enum class Mode {
    kMeasurementBased,  ///< ν̂, d̂_j from LinkMeasurement (paper's design)
    kParameterBased,    ///< ν̂ = Σ committed rates, d̂_j = 0 (worst-case)
  };

  struct Config {
    Mode mode = Mode::kMeasurementBased;
    /// Fraction of each link reserved for datagram traffic (paper: 10%).
    double datagram_quota = 0.1;
  };

  explicit AdmissionController(Config config) : config_(config) {}

  /// Registers a directed link with its per-class per-hop delay targets
  /// D_0 < D_1 < ... (ascending: class 0 is the tightest/highest priority).
  /// `measurement` may be null (parameter-based mode only).
  void register_link(LinkId link, sim::Rate rate,
                     std::vector<sim::Duration> class_targets,
                     LinkMeasurement* measurement = nullptr);

  /// Decides admission of `spec` along `path` at time `now`; on success the
  /// flow's resources are committed on every link and the commitment
  /// describes the advertised bound and per-hop priority levels.
  ServiceCommitment request(const FlowSpec& spec,
                            const std::vector<LinkId>& path, sim::Time now);

  /// Releases a previously admitted flow's resources.  Idempotent: the
  /// rate, service class and path actually committed at request() time are
  /// looked up by flow id, so a release racing a reroute (teardown arrives
  /// after the flow already moved or was torn down) subtracts the right
  /// amounts from the right links exactly once.  Returns false — and
  /// touches nothing — when the flow holds no commitment (never admitted,
  /// datagram, or already released).
  bool release(const FlowSpec& spec);

  /// True while `flow` holds a committed reservation.
  [[nodiscard]] bool committed(net::FlowId flow) const {
    return committed_.contains(flow);
  }

  /// Committed guaranteed clock-rate sum on a link (diagnostic).
  [[nodiscard]] sim::Rate guaranteed_rate(LinkId link) const;
  /// Committed predicted token-rate sum on a link (diagnostic).
  [[nodiscard]] sim::Rate predicted_rate(LinkId link) const;

  /// Re-rates a registered link (capacity brown-out / restore): both
  /// criteria evaluate against the new μ from now on.  Commitments are
  /// NOT touched — the caller re-validates admitted flows against the
  /// reduced capacity and sheds the over-committed ones.
  void set_link_rate(LinkId link, sim::Rate rate);

  /// The rate a link is currently registered at (admission's μ).
  [[nodiscard]] sim::Rate link_rate(LinkId link) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct LinkState {
    sim::Rate rate = 0;
    std::vector<sim::Duration> class_targets;
    LinkMeasurement* measurement = nullptr;
    sim::Rate guaranteed_rate = 0;
    sim::Rate predicted_rate = 0;
  };

  /// What request() actually committed for one flow — release() subtracts
  /// from this record, not from caller-supplied arguments, so stale
  /// teardowns (after a reroute changed the path) cannot double-release
  /// or release from the wrong links.
  struct Commitment {
    net::ServiceClass service = net::ServiceClass::kDatagram;
    sim::Rate rate = 0;
    std::vector<LinkId> path;
  };

  /// ν̂ for one link, as a fraction of link rate.
  [[nodiscard]] double utilization(LinkState& link, sim::Time now) const;
  /// d̂_j for one link (seconds).
  [[nodiscard]] sim::Duration class_delay(LinkState& link, int klass,
                                          sim::Time now) const;

  /// Checks both criteria for a rate-r, burst-b flow at priority `level`
  /// on `link`; fills `why` on failure.
  bool check(LinkState& link, sim::Rate r, sim::Bits b, int level,
             sim::Time now, std::string* why) const;

  Config config_;
  std::map<LinkId, LinkState> links_;
  std::map<net::FlowId, Commitment> committed_;
};

}  // namespace ispn::core
