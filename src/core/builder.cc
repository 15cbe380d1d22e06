#include "core/builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace ispn::core {

IspnNetwork::IspnNetwork(Config config)
    : config_(std::move(config)),
      net_(config_.event_backend),
      admission_(config_.admission) {
  assert(!config_.class_targets.empty());
  assert(std::is_sorted(config_.class_targets.begin(),
                        config_.class_targets.end()));
  // Must precede topology construction: domains are created per switch.
  if (config_.sharded) net_.enable_sharding(config_.link_latency);
}

net::LinkSchedulerFactory IspnNetwork::qos_link_factory() {
  return [this](net::NodeId from, net::NodeId to,
                sim::Rate rate) -> std::unique_ptr<sched::Scheduler> {
    const LinkId link{from, to};
    auto measurement = std::make_unique<LinkMeasurement>(LinkMeasurement::Config{
        rate, static_cast<int>(config_.class_targets.size()),
        config_.measurement_window, config_.measurement_safety,
        config_.measurement_estimator, config_.measurement_ewma_gain});
    LinkMeasurement* meas = measurement.get();

    sched::UnifiedScheduler::Config sched_config{
        rate, config_.buffer_pkts,
        static_cast<int>(config_.class_targets.size()),
        config_.fifo_plus_gain, config_.fifo_plus,
        config_.stale_offset_threshold};
    sched_config.order_backend = config_.order_backend;
    sched_config.hierarchical = config_.hierarchical;
    sched_config.binary_feedback = config_.binary_feedback;
    sched_config.mark_threshold = config_.mark_threshold;
    auto scheduler = std::make_unique<sched::UnifiedScheduler>(sched_config);
    // Stale discards flow through the scheduler's DropSink like every
    // other loss, so the port's drop hook already folds them into the
    // per-flow net_drops counters — no side-channel wiring needed.
    scheduler->set_wait_observer(
        [meas](int klass, sim::Duration wait, sim::Time now) {
          meas->on_class_wait(klass, wait, now);
        });
    Link& state = links_[link];
    state.scheduler = scheduler.get();
    state.measurement = std::move(measurement);
    state.base_rate = rate;
    link_order_.push_back(link);

    admission_.register_link(link, rate, config_.class_targets, meas);
    return scheduler;
  };
}

void IspnNetwork::instrument_links() {
  // Feed the real-time utilisation meters from transmissions.  Ports exist
  // once the topology builder has connected the link, so instrumentation
  // runs as a second pass over everything registered since the last call.
  for (; instrumented_upto_ < link_order_.size(); ++instrumented_upto_) {
    const LinkId link = link_order_[instrumented_upto_];
    Link& state = links_.at(link);
    LinkMeasurement* meas = state.measurement.get();
    sim::Bits* total = &state.realtime_bits;
    net::Port* port = net_.port(link.first, link.second);
    assert(port != nullptr && "instrument_links before the link's port exists");
    port->add_tx_hook([meas, total](const net::Packet& p, sim::Time now) {
      if (p.service != net::ServiceClass::kDatagram) {
        meas->on_realtime_tx(p.size_bits, now);
        *total += p.size_bits;
      }
    });
  }
}

net::ChainTopology IspnNetwork::build_chain(int num_switches) {
  return instrumented(net::build_chain(net_, num_switches, config_.link_rate,
                                       qos_link_factory()));
}

net::FanTreeTopology IspnNetwork::build_fan_tree(
    int depth, int width, std::vector<sim::Rate> level_rates) {
  if (level_rates.empty()) {
    level_rates.assign(static_cast<std::size_t>(depth - 1), config_.link_rate);
  }
  return instrumented(
      net::build_fan_tree(net_, depth, width, level_rates, qos_link_factory()));
}

net::ParkingLotTopology IspnNetwork::build_parking_lot(
    int num_hops, std::vector<sim::Rate> hop_rates) {
  if (hop_rates.empty()) {
    hop_rates.assign(static_cast<std::size_t>(num_hops), config_.link_rate);
  }
  return instrumented(
      net::build_parking_lot(net_, hop_rates, qos_link_factory()));
}

net::MeshTopology IspnNetwork::build_mesh(int rows, int cols) {
  return instrumented(
      net::build_mesh(net_, rows, cols, config_.link_rate, qos_link_factory()));
}

net::RingTopology IspnNetwork::build_ring(int num_switches) {
  return instrumented(net::build_ring(net_, num_switches, config_.link_rate,
                                      qos_link_factory()));
}

net::ClosTopology IspnNetwork::build_clos(int spines, int leaves) {
  return instrumented(net::build_clos(net_, spines, leaves, config_.link_rate,
                                      qos_link_factory()));
}

std::vector<LinkId> IspnNetwork::route_links(net::NodeId src,
                                             net::NodeId dst) const {
  const auto row = net_.route_row(src);
  auto parent = [&](net::NodeId v) { return row[static_cast<std::size_t>(v)]; };
  std::vector<LinkId> links;
  if (parent(dst) == net::kNoNode) return links;
  // The row is walked dst -> src: size the vector to the hop count once,
  // collect the links backwards, then put them in path order.
  std::size_t hops = 0;
  for (net::NodeId v = dst; v != src; v = parent(v)) ++hops;
  links.reserve(hops);
  for (net::NodeId v = dst; v != src; v = parent(v)) {
    // Only inter-switch links queue; host attachments are infinitely fast.
    if (links_.contains({parent(v), v})) links.emplace_back(parent(v), v);
  }
  std::reverse(links.begin(), links.end());
  return links;
}

std::vector<net::FlowId> IspnNetwork::flows_crossing(net::NodeId a,
                                                     net::NodeId b) const {
  std::vector<net::FlowId> out;
  for (const LinkId& dir : {LinkId{a, b}, LinkId{b, a}}) {
    auto it = links_.find(dir);
    if (it == links_.end()) continue;
    out.insert(out.end(), it->second.flows.begin(), it->second.flows.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void IspnNetwork::register_hop(const LinkId& link, const FlowSpec& spec,
                               int priority) {
  Link& state = links_.at(link);
  const bool held = std::find(state.flows.begin(), state.flows.end(),
                              spec.flow) != state.flows.end();
  if (spec.service == net::ServiceClass::kPredicted) {
    state.scheduler->set_predicted_priority(spec.flow, priority);
  } else if (!held) {
    state.scheduler->add_guaranteed(spec.flow, spec.guaranteed->clock_rate);
  }
  if (!held) state.flows.push_back(spec.flow);
}

void IspnNetwork::deregister_hop(const LinkId& link, const FlowSpec& spec,
                                 bool expel) {
  Link& state = links_.at(link);
  if (spec.service == net::ServiceClass::kPredicted) {
    state.scheduler->remove_predicted(spec.flow);
  } else if (expel) {
    // Guaranteed packets still queued here are casualties of the path
    // change: they would otherwise pin a WFQ registration whose clock rate
    // is being handed back.
    state.scheduler->expel_guaranteed(
        spec.flow, net_.sim().now(),
        [this, flow = spec.flow](net::PacketPtr, sim::Time) {
          ++net_.stats(flow).failed_link_drops;
        });
  } else {
    state.scheduler->remove_guaranteed(spec.flow);
  }
  std::erase(state.flows, spec.flow);
}

void IspnNetwork::configure_flow(const FlowHandle& handle) {
  if (handle.spec.service == net::ServiceClass::kDatagram) return;
  const std::vector<int>& levels = handle.commitment.priority_per_hop;
  assert(handle.spec.service == net::ServiceClass::kGuaranteed ||
         levels.size() == handle.links.size());
  for (std::size_t i = 0; i < handle.links.size(); ++i) {
    register_hop(handle.links[i], handle.spec, levels.empty() ? 0 : levels[i]);
  }
}

IspnNetwork::FlowHandle IspnNetwork::try_open_flow(const FlowSpec& spec) {
  assert(spec.valid());
  FlowHandle handle;
  handle.spec = spec;
  // A partitioned destination (crashed switch, failed links) yields an
  // EMPTY route; admission would vacuously accept the hop-less path and
  // commit to a service no packet can receive.  Refuse instead.
  if (!net_.reachable(spec.src, spec.dst)) {
    handle.commitment.reason = "unreachable";
    return handle;
  }
  handle.links = route_links(spec.src, spec.dst);
  handle.commitment =
      admission_.request(spec, handle.links, net_.sim().now());
  // A rejected flow configures nothing: every scheduler and ledger along
  // the path is exactly as if the request had never been made.
  if (handle.commitment.admitted) configure_flow(handle);
  return handle;
}

IspnNetwork::FlowHandle IspnNetwork::open_flow(const FlowSpec& spec) {
  FlowHandle handle = try_open_flow(spec);
  if (handle.commitment.admitted) return handle;
  if (config_.enforce_admission) {
    throw std::runtime_error("admission rejected " + describe(spec) + ": " +
                             handle.commitment.reason);
  }
  // A partitioned destination has no path, and not even a forced
  // configuration can serve it.
  if (!net_.reachable(spec.src, spec.dst)) return handle;
  // Forced configuration (paper-style static experiments): pick the
  // cheapest adequate class exactly as admission would have.
  if (spec.service == net::ServiceClass::kPredicted) {
    const int chosen = std::max(
        0, cheapest_class(config_.class_targets,
                          spec.predicted->target_delay /
                              static_cast<double>(handle.links.size())));
    handle.commitment.priority_per_hop.assign(handle.links.size(), chosen);
    handle.commitment.advertised_bound =
        static_cast<double>(handle.links.size()) *
        config_.class_targets[static_cast<std::size_t>(chosen)];
  }
  configure_flow(handle);
  return handle;
}

void IspnNetwork::close_flow(const FlowHandle& handle) {
  const FlowSpec& spec = handle.spec;
  if (spec.service == net::ServiceClass::kDatagram) return;
  if (handle.commitment.admitted && !admission_.release(spec)) {
    // The ledger shows no commitment: an earlier close or a reroute
    // already released this flow (and deregistered its schedulers).
    // Proceeding would hand the bandwidth back a second time.
    return;
  }
  for (const LinkId& link : handle.links) {
    deregister_hop(link, spec, /*expel=*/false);
  }
}

IspnNetwork::RerouteOutcome IspnNetwork::reroute_flow(
    FlowHandle& handle, bool degrade_to_datagram) {
  FlowSpec& spec = handle.spec;
  assert(spec.service != net::ServiceClass::kDatagram &&
         "datagram flows follow the routing tables; nothing to re-offer");
  assert(handle.commitment.admitted && "reroute is for admitted flows");
  std::vector<LinkId> new_links = route_links(spec.src, spec.dst);
  const bool reachable = net_.reachable(spec.src, spec.dst);

  // Release first: the re-offer must compete against live state that no
  // longer counts this flow's own reservation.  Idempotent, so a racing
  // teardown cannot double-release.
  admission_.release(spec);
  ServiceCommitment fresh;
  if (reachable) fresh = admission_.request(spec, new_links, net_.sim().now());

  // Leave every old link the flow will not hold.  Links on both the old
  // and new path keep their registration and their queued packets; only
  // the divergence changes hands.
  for (const LinkId& link : handle.links) {
    if (!fresh.admitted ||
        std::find(new_links.begin(), new_links.end(), link) ==
            new_links.end()) {
      deregister_hop(link, spec, /*expel=*/true);
    }
  }
  handle.links.clear();
  handle.commitment = ServiceCommitment{};
  if (!reachable) return RerouteOutcome::kOrphaned;
  if (fresh.admitted) {
    handle.links = std::move(new_links);
    handle.commitment = std::move(fresh);
    configure_flow(handle);
    return RerouteOutcome::kRerouted;
  }
  if (!degrade_to_datagram) return RerouteOutcome::kClosed;
  // Refused on the new path: carried on as datagram, which is never
  // refused.
  spec.service = net::ServiceClass::kDatagram;
  spec.guaranteed.reset();
  spec.predicted.reset();
  handle.links = std::move(new_links);
  handle.commitment.admitted = true;
  return RerouteOutcome::kDegraded;
}

traffic::OnOffSource& IspnNetwork::attach_onoff_source(
    const FlowHandle& handle, traffic::OnOffSource::Config config,
    std::uint64_t stream, std::optional<traffic::TokenBucketSpec> police) {
  const FlowSpec& spec = handle.spec;
  if (!police && spec.service == net::ServiceClass::kPredicted) {
    // Predicted flows are policed at the network edge with the declared
    // filter (paper §8); source-side dropping is equivalent in simulation
    // since host links are infinitely fast.
    police = spec.predicted->bucket;
  }
  net::Host& host = net_.host(spec.src);
  auto source = std::make_unique<traffic::OnOffSource>(
      net_.sim_for(spec.src), config, sim::Rng(config_.seed, stream),
      spec.flow, spec.src, spec.dst,
      [&host](net::PacketPtr p) { host.inject(std::move(p)); },
      &net_.stats(spec.flow), police);
  source->set_service(spec.service, handle.commitment.first_hop_priority());
  source->set_pool(&net_.pool_for(spec.src));
  auto& ref = *source;
  sources_.push_back(std::move(source));
  return ref;
}

std::pair<traffic::TcpSource&, traffic::TcpSink&> IspnNetwork::attach_tcp(
    const FlowHandle& handle, traffic::TcpSource::Config config) {
  const FlowSpec& spec = handle.spec;
  assert(spec.service == net::ServiceClass::kDatagram);
  net::Host& src_host = net_.host(spec.src);
  net::Host& dst_host = net_.host(spec.dst);
  // Each endpoint lives on its own host's clock: in a sharded run that is
  // the owning domain's simulator and packet pool, classically the global
  // ones.
  auto source = std::make_unique<traffic::TcpSource>(
      net_.sim_for(spec.src), config, spec.flow, spec.src, spec.dst,
      [&src_host](net::PacketPtr p) { src_host.inject(std::move(p)); },
      &net_.stats(spec.flow));
  auto sink = std::make_unique<traffic::TcpSink>(
      net_.sim_for(spec.dst), config, spec.flow, spec.dst, spec.src,
      [&dst_host](net::PacketPtr p) { dst_host.inject(std::move(p)); });
  sink->set_stats(&net_.stats(spec.flow));
  source->set_pool(&net_.pool_for(spec.src));
  sink->set_pool(&net_.pool_for(spec.dst));

  // ACKs arrive back at the source host; data arrives at the destination
  // behind the stats recorder.
  src_host.register_sink(spec.flow, source.get());
  net_.attach_stats_sink(spec.flow, spec.dst, sink.get());

  auto& src_ref = *source;
  auto& sink_ref = *sink;
  tcp_sources_.push_back(std::move(source));
  tcp_sinks_.push_back(std::move(sink));
  return {src_ref, sink_ref};
}

void IspnNetwork::attach_sink(const FlowHandle& handle, net::FlowSink* app) {
  net_.attach_stats_sink(handle.spec.flow, handle.spec.dst, app);
}

sim::Duration IspnNetwork::guaranteed_bound(
    const FlowHandle& handle, const traffic::TokenBucketSpec& bucket,
    sim::Bits packet_bits) const {
  assert(handle.spec.service == net::ServiceClass::kGuaranteed);
  return pg_paper_bound(bucket, handle.links.size(), packet_bits);
}

double IspnNetwork::link_utilization(LinkId link, sim::Time now) {
  return net_.port(link.first, link.second)->utilization(now);
}

double IspnNetwork::realtime_utilization(LinkId link, sim::Time now) const {
  if (now <= 0) return 0.0;
  auto it = links_.find(link);
  if (it == links_.end()) return 0.0;
  return it->second.realtime_bits / (it->second.base_rate * now);
}

}  // namespace ispn::core
