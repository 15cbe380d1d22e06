// IspnNetwork: the top-level public API assembling the paper's full
// architecture — unified schedulers on every link, per-link measurement,
// admission control, service commitments, sources and sinks.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::IspnNetwork ispn({.num_predicted_classes = 2,
//                           .class_targets = {0.005, 0.05}});
//   auto topo = ispn.build_chain(5);
//   auto flow = ispn.open_flow(spec);            // admission + scheduling
//   ispn.attach_onoff_source(flow, cfg, seed);   // paper's Markov source
//   ispn.attach_sink(flow);                      // stats (+ optional app)
//   ispn.net().sim().run_until(600.0);
//   ispn.net().stats(flow.spec.flow).mean_qdelay_pkt();
//
// Beyond the paper's chain, arbitrary fabrics compose from two pieces:
// qos_link_factory() hands any net::build_* topology builder a factory
// that equips every finite-rate link direction with a unified scheduler,
// a LinkMeasurement and an admission registration, and
// instrument_links() (called once, after topology construction) wires the
// transmit hooks that feed the ν̂ meters.  build_chain/build_fan_tree/
// build_parking_lot below are those compositions; src/scenario/ builds
// whole parameterized fabrics on top of them.

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/admission.h"
#include "core/flowspec.h"
#include "core/measurement.h"
#include "core/pg_bound.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/unified.h"
#include "traffic/onoff_source.h"
#include "traffic/tcp.h"

namespace ispn::core {

class IspnNetwork {
 public:
  struct Config {
    sim::Rate link_rate = sim::paper::kLinkRate;
    std::size_t buffer_pkts = sim::paper::kBufferPackets;
    /// Per-hop delay targets D_i (ascending; one per predicted class).
    /// The paper suggests order-of-magnitude spacing.
    std::vector<sim::Duration> class_targets = {0.008, 0.064};
    double fifo_plus_gain = 1.0 / 4096.0;
    bool fifo_plus = true;
    /// §10 stale-packet discard threshold on the FIFO+ offset (seconds);
    /// infinity disables (default).
    sim::Duration stale_offset_threshold = sim::kTimeInfinity;
    AdmissionController::Config admission = {};
    /// When false, open_flow() configures flows even if admission fails
    /// (used to reproduce the paper's static experiments, which pre-date
    /// a validated admission policy).
    bool enforce_admission = true;
    sim::Duration measurement_window = 10.0;
    double measurement_safety = 1.2;
    LinkMeasurement::Estimator measurement_estimator =
        LinkMeasurement::Estimator::kPeakEpoch;
    double measurement_ewma_gain = 0.25;
    std::uint64_t seed = 1;
    /// Engine knobs: both are pure performance choices — every backend
    /// yields byte-identical schedules (differential harnesses, PR 3/4,
    /// and the scenario golden-trace suite).
    sim::EventBackend event_backend = sim::EventBackend::kAuto;
    sched::OrderBackend order_backend = sched::OrderBackend::kAuto;
    /// Two-level aggregate scheduling on every link (see
    /// sched::UnifiedScheduler::Config::hierarchical): per-link state
    /// bounded by {guaranteed flows, K classes, datagram} instead of
    /// per-flow.  Default off — the classic flat path, byte-identical.
    bool hierarchical = false;
    /// DEC-TR-506 binary feedback on every link's datagram class: mark
    /// Packet::cong_mark when the time-averaged datagram queue length
    /// reaches mark_threshold (see sched::UnifiedScheduler::Config).
    /// Responsive sources (attach_tcp with Config::binary_feedback) back
    /// off on the echoed marks.  Default off.
    bool binary_feedback = false;
    double mark_threshold = 1.0;
    /// Sharded execution (net/Network::enable_sharding): one domain per
    /// switch, cross-domain links carrying `link_latency` of propagation
    /// delay.  The decomposition is topology-determined, so results are
    /// bit-identical for ANY worker count — but the latency model differs
    /// from the classic zero-propagation path, so sharded and classic
    /// runs are two distinct (each internally deterministic) references.
    bool sharded = false;
    sim::Duration link_latency = 0.001;
  };

  /// An admitted (or force-configured) flow.
  struct FlowHandle {
    FlowSpec spec;
    ServiceCommitment commitment;
    std::vector<LinkId> links;  ///< directed inter-switch links on the path
  };

  explicit IspnNetwork(Config config);

  /// Per-direction, rate-aware link factory: unified scheduler +
  /// LinkMeasurement + admission registration, keyed (from, to) and sized
  /// to the link's actual rate (per-hop rates in parking lots and trees
  /// flow through to every layer).  Hand it to any net::build_* builder
  /// (or net().connect directly), then call instrument_links() once the
  /// topology is complete.
  [[nodiscard]] net::LinkSchedulerFactory qos_link_factory();

  /// Installs the transmit hooks that feed every registered link's ν̂
  /// meter.  Idempotent per link: only links registered since the last
  /// call are instrumented, so staged topology construction works.
  void instrument_links();

  /// Builds the paper's Figure-1 chain (one host per switch) with unified
  /// schedulers + measurement on every inter-switch link direction.
  net::ChainTopology build_chain(int num_switches);

  /// Builds a `width`-ary aggregation tree of `depth` switch levels (all
  /// QoS links at config link_rate unless `level_rates` overrides, one
  /// rate per level).  See net::build_fan_tree.
  net::FanTreeTopology build_fan_tree(
      int depth, int width, std::vector<sim::Rate> level_rates = {});

  /// Builds a multi-bottleneck parking lot of `num_hops` QoS links with
  /// per-hop entry/exit hosts (all at config link_rate unless `hop_rates`
  /// overrides).  See net::build_parking_lot.
  net::ParkingLotTopology build_parking_lot(
      int num_hops, std::vector<sim::Rate> hop_rates = {});

  /// Builds a rows x cols grid with QoS links between adjacent switches
  /// (alternate paths for the failure scenarios).  See net::build_mesh.
  net::MeshTopology build_mesh(int rows, int cols);

  /// Builds an n-switch cycle.  See net::build_ring.
  net::RingTopology build_ring(int num_switches);

  /// Builds a two-level folded Clos.  See net::build_clos.
  net::ClosTopology build_clos(int spines, int leaves);

  /// Requests service for `spec` (admission control + scheduler setup).
  /// Throws std::runtime_error if rejected while enforce_admission is on;
  /// otherwise configures the flow regardless and records the decision.
  FlowHandle open_flow(const FlowSpec& spec);

  /// Non-throwing admission: the decision is recorded in the returned
  /// handle's commitment, and schedulers along the path are configured
  /// ONLY when the flow is admitted — a rejected flow leaves every
  /// scheduler, measurement and admission ledger untouched (pinned by the
  /// scenario property suite).
  FlowHandle try_open_flow(const FlowSpec& spec);

  /// Tears down an admitted flow: releases its admission-control
  /// commitments and deregisters it from every scheduler on its path.
  /// Stop the flow's source first; guaranteed flows must have drained
  /// (their per-flow queues empty) before closing.  Idempotent against
  /// double teardown: when the admission ledger shows the flow already
  /// released (an earlier close, or a reroute that moved it), the call is
  /// a no-op — bandwidth is never handed back twice.
  void close_flow(const FlowHandle& handle);

  /// What happened to an admitted flow re-offered after a topology change.
  enum class RerouteOutcome {
    kRerouted,  ///< re-admitted on the new shortest path, commitments moved
    kDegraded,  ///< refused on the new path; now carried as datagram
    kClosed,    ///< refused and degrade declined: torn down (preempted)
    kOrphaned,  ///< destination unreachable: torn down, nothing re-offered
  };

  /// Re-offers an admitted guaranteed/predicted flow on the current
  /// shortest path after a topology change (paper §9 criteria against the
  /// live ν̂/d̂_j — the old reservation is released first, so the flow
  /// competes only with everyone else).  Path links shared between the old
  /// and new route keep their scheduler registration and queued packets;
  /// links left behind are expelled, with stranded guaranteed packets
  /// accounted to the flow's failed_link_drops.  On refusal the flow is
  /// degraded to the datagram class when `degrade_to_datagram` (the spec's
  /// service is rewritten), else fully torn down.  `handle` is updated in
  /// place to describe the new state.
  RerouteOutcome reroute_flow(FlowHandle& handle, bool degrade_to_datagram);

  /// Creates the paper's two-state Markov source for `flow`.  Predicted
  /// flows are policed at the edge with their declared bucket; guaranteed
  /// and datagram flows are not policed (guaranteed sources made no traffic
  /// commitment; the paper still drops nonconforming packets at the
  /// *source* for all its real-time flows, so pass `police` to override).
  traffic::OnOffSource& attach_onoff_source(
      const FlowHandle& handle, traffic::OnOffSource::Config config,
      std::uint64_t stream,
      std::optional<traffic::TokenBucketSpec> police = std::nullopt);

  /// Creates a responsive TCP bulk connection for a datagram flow.  The
  /// stack (reno | bbr | rack) and the binary-feedback response come from
  /// `config`.  Sharding-aware: each endpoint lives on its own domain's
  /// clock and draws packets from its domain's pool.
  std::pair<traffic::TcpSource&, traffic::TcpSink&> attach_tcp(
      const FlowHandle& handle,
      traffic::TcpSource::Config config = traffic::TcpSource::Config());

  /// Attaches the statistics sink at the destination (optionally chaining
  /// to an application sink such as a playback app).
  void attach_sink(const FlowHandle& handle, net::FlowSink* app = nullptr);

  /// Advertised a-priori bound for a guaranteed flow whose traffic conforms
  /// to `bucket`: the paper's Parekh–Gallager form over the flow's path.
  /// `packet_bits` is the flow's packet size (the per-hop term scales with
  /// it; default: the paper's 1000 bits).
  [[nodiscard]] sim::Duration guaranteed_bound(
      const FlowHandle& handle, const traffic::TokenBucketSpec& bucket,
      sim::Bits packet_bits = sim::paper::kPacketBits) const;

  [[nodiscard]] net::Network& net() { return net_; }
  [[nodiscard]] AdmissionController& admission() { return admission_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// The unified scheduler on a directed inter-switch link.
  [[nodiscard]] sched::UnifiedScheduler& scheduler(LinkId link) {
    return *links_.at(link).scheduler;
  }
  [[nodiscard]] LinkMeasurement& measurement(LinkId link) {
    return *links_.at(link).measurement;
  }

  /// Every registered QoS link, in registration order (both directions of
  /// each inter-switch connection).
  [[nodiscard]] const std::vector<LinkId>& links() const {
    return link_order_;
  }

  /// The as-built rate of a registered QoS link.  Brown-outs re-rate
  /// admission, measurement, schedulers and ports, but never this
  /// baseline — restores multiply against it, so repeated episodes on one
  /// link cannot compound rounding drift.
  [[nodiscard]] sim::Rate link_base_rate(LinkId link) const {
    return links_.at(link).base_rate;
  }

  /// Directed inter-switch links on the current route src -> dst.
  [[nodiscard]] std::vector<LinkId> route_links(net::NodeId src,
                                                net::NodeId dst) const;

  /// Flows with a live scheduler registration on either direction of the
  /// a<->b link (sorted, unique).  Backed by a per-link index maintained
  /// at configure/close/reroute time, so a link-failure event revalidates
  /// only the flows actually crossing the failed link instead of scanning
  /// every active flow.  Note the asymmetry: this answers "who did the
  /// DOWN event break?" exactly; a link coming UP can shorten the best
  /// path of flows that never touched it, so UP-event revalidation still
  /// requires a full scan (scenario/runner.cc).
  [[nodiscard]] std::vector<net::FlowId> flows_crossing(net::NodeId a,
                                                        net::NodeId b) const;

  /// Utilisation of a directed link over [0, now].
  [[nodiscard]] double link_utilization(LinkId link, sim::Time now);

  /// Real-time-only (guaranteed + predicted) utilisation over [0, now].
  [[nodiscard]] double realtime_utilization(LinkId link, sim::Time now) const;

 private:
  /// Everything the network keeps per registered QoS link.
  struct Link {
    sched::UnifiedScheduler* scheduler = nullptr;  ///< owned by the port
    std::unique_ptr<LinkMeasurement> measurement;
    sim::Rate base_rate = 0;    ///< as built; see link_base_rate()
    sim::Bits realtime_bits = 0;  ///< guaranteed + predicted transmitted
    /// Flows registered on this link's scheduler (the flows_crossing
    /// index; mirrors register_hop/deregister_hop 1:1).
    std::vector<net::FlowId> flows;
  };

  /// Passes a topology builder's result on after instrument_links().
  template <class Topology>
  Topology instrumented(Topology topo) {
    instrument_links();
    return topo;
  }

  /// Configures the schedulers along an (accepted or forced) flow's path.
  /// Links the flow already holds keep their registration: a guaranteed
  /// flow keeps its WFQ queue, a predicted flow takes the new class.
  void configure_flow(const FlowHandle& handle);

  /// One hop of a flow's configuration: the scheduler registration (the
  /// guaranteed clock rate, or predicted class `priority`) plus the
  /// flows_crossing index.
  void register_hop(const LinkId& link, const FlowSpec& spec, int priority);
  /// Undoes register_hop.  A graceful teardown needs a drained guaranteed
  /// queue; with `expel` (a path change) packets still queued are dropped
  /// into the flow's failed_link_drops.
  void deregister_hop(const LinkId& link, const FlowSpec& spec, bool expel);

  Config config_;
  net::Network net_;
  AdmissionController admission_;
  std::map<LinkId, Link> links_;
  std::vector<LinkId> link_order_;      ///< registration order
  std::size_t instrumented_upto_ = 0;   ///< links with tx hooks installed
  std::vector<std::unique_ptr<traffic::Source>> sources_;
  std::vector<std::unique_ptr<traffic::TcpSource>> tcp_sources_;
  std::vector<std::unique_ptr<traffic::TcpSink>> tcp_sinks_;
};

}  // namespace ispn::core
