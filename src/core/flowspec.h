// The service interface (paper §8).
//
// Guaranteed service: the source specifies only its clock rate r; the
// network guarantees that rate through WFQ and the client computes its own
// worst-case delay from its known b(r).  No conformance check is performed
// — the client made no traffic commitment.
//
// Predicted service: the source declares a token-bucket filter (r, b) plus
// the service it needs: a delay target D and tolerable loss rate L.  The
// network maps (D, L) to a priority class at each switch and polices (r, b)
// at the network edge only.
//
// Datagram: no parameters, no commitment beyond "do not delay or drop
// unnecessarily" and the 10% bandwidth quota (§9).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/units.h"
#include "traffic/token_bucket.h"

namespace ispn::core {

/// Guaranteed-service request: a WFQ clock rate (bits/s).
struct GuaranteedSpec {
  sim::Rate clock_rate = 0;
};

/// Predicted-service request: edge filter plus delay/loss targets.
struct PredictedSpec {
  traffic::TokenBucketSpec bucket;
  sim::Duration target_delay = 0;  ///< D: per-path delay target (seconds)
  double target_loss = 0;          ///< L: tolerable loss fraction, [0, 1]
};

/// One flow's service request.
struct FlowSpec {
  net::FlowId flow = net::kNoFlow;
  net::NodeId src = net::kNoNode;
  net::NodeId dst = net::kNoNode;
  net::ServiceClass service = net::ServiceClass::kDatagram;
  std::optional<GuaranteedSpec> guaranteed;  ///< set iff service == kGuaranteed
  std::optional<PredictedSpec> predicted;    ///< set iff service == kPredicted

  /// True when the variant fields are consistent with `service`.
  [[nodiscard]] bool valid() const;
};

/// The network's answer to a service request.
struct ServiceCommitment {
  bool admitted = false;
  /// A-priori delay bound advertised to the client (seconds):
  /// Parekh–Gallager for guaranteed flows, the sum of per-hop class targets
  /// D_i for predicted flows, absent for datagram.
  std::optional<sim::Duration> advertised_bound;
  /// Priority level assigned at each hop (predicted flows only; the paper
  /// allows different levels per switch).
  std::vector<int> priority_per_hop;
  /// Human-readable reason when rejected.
  std::string reason;
  /// Index into the requested path of the link that refused the flow
  /// (-1 when admitted, or when the rejection is not tied to one hop).
  int rejected_hop = -1;

  /// The priority a source stamps on its packets: the first hop's level,
  /// or 0 when no level was assigned (guaranteed and datagram flows).
  [[nodiscard]] std::uint8_t first_hop_priority() const {
    return priority_per_hop.empty()
               ? 0
               : static_cast<std::uint8_t>(priority_per_hop.front());
  }
};

/// Renders a one-line description ("G r=170kb/s", "P (85kb/s,50kb) D=5ms
/// L=1e-2", "D") for logs and bench output.
[[nodiscard]] std::string describe(const FlowSpec& spec);

}  // namespace ispn::core
