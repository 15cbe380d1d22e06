// IspnNetwork::reroute_flow, driven directly: every outcome (rerouted,
// degraded, closed, orphaned) for a guaranteed and a predicted flow, with
// the scheduler registrations, the per-link crossing index, the admission
// ledger and the fate of queued guaranteed packets checked on every link
// of the old and the new path.
//
// Fabric: ha - A - B - C - hc, plus the detour B - D - C and a host hd on
// D.  The flow runs ha -> hc over A->B, B->C.  Failing B-C moves it to
// A->B, B->D, D->C (A->B is shared); failing A-B leaves hc unreachable.
// A guaranteed "blocker" flow hd -> hc fills D->C so the detour refuses.

#include <gtest/gtest.h>

#include <vector>

#include "core/builder.h"

namespace ispn::core {
namespace {

using Outcome = IspnNetwork::RerouteOutcome;

constexpr sim::Rate kGuaranteedRate = 3e5;
constexpr sim::Rate kBlockerRate = 8.5e5;  // leaves < 3e5 and < 85 kb/s

struct Detour {
  net::NodeId a, b, c, d;
  net::NodeId ha, hc, hd;
};

IspnNetwork::Config config() {
  IspnNetwork::Config c;
  c.class_targets = {0.016, 0.16};
  c.admission.mode = AdmissionController::Mode::kParameterBased;
  return c;
}

Detour build_detour(IspnNetwork& ispn) {
  net::Network& net = ispn.net();
  Detour t{};
  t.a = net.add_switch("A").id();
  t.b = net.add_switch("B").id();
  t.c = net.add_switch("C").id();
  t.d = net.add_switch("D").id();
  t.ha = net.add_host("ha").id();
  t.hc = net.add_host("hc").id();
  t.hd = net.add_host("hd").id();
  net.connect(t.ha, t.a, 0);
  net.connect(t.hc, t.c, 0);
  net.connect(t.hd, t.d, 0);
  const auto factory = ispn.qos_link_factory();
  const sim::Rate rate = ispn.config().link_rate;
  net.connect(t.a, t.b, rate, factory);
  net.connect(t.b, t.c, rate, factory);
  net.connect(t.b, t.d, rate, factory);
  net.connect(t.d, t.c, rate, factory);
  net.build_routes();
  ispn.instrument_links();
  return t;
}

FlowSpec guaranteed(net::FlowId id, net::NodeId src, net::NodeId dst,
                    sim::Rate r) {
  FlowSpec s;
  s.flow = id;
  s.src = src;
  s.dst = dst;
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{r};
  return s;
}

/// Predicted at an 0.4 s end-to-end target: class 1 (0.16 s per hop) on
/// the two-hop path, class 0 (0.016 s) on the three-hop detour.
FlowSpec predicted(net::FlowId id, net::NodeId src, net::NodeId dst) {
  FlowSpec s;
  s.flow = id;
  s.src = src;
  s.dst = dst;
  s.service = net::ServiceClass::kPredicted;
  s.predicted = PredictedSpec{{85000.0, 5000.0}, 0.4, 0.01};
  return s;
}

/// Queues one guaranteed packet of `flow` on `link`'s scheduler.
void queue_guaranteed(IspnNetwork& ispn, LinkId link, net::FlowId flow) {
  net::PacketPtr p = net::make_packet(flow, 0, link.first, link.second,
                                      ispn.net().sim().now(), 1000);
  p->service = net::ServiceClass::kGuaranteed;
  ispn.scheduler(link).enqueue(std::move(p), ispn.net().sim().now());
}

/// The class `flow`'s packets join on `link`: its registered predicted
/// level, or the datagram level (the class count) when it holds no
/// predicted registration there.  The probe packet is queued on an
/// otherwise empty scheduler and dequeued again.  It is stamped
/// guaranteed, a service the flow holds on no link in these cases, so the
/// stamp itself cannot pick a predicted class.
int predicted_level(IspnNetwork& ispn, LinkId link, net::FlowId flow) {
  sched::UnifiedScheduler& s = ispn.scheduler(link);
  EXPECT_EQ(s.packets(), 0u);
  const int levels = static_cast<int>(ispn.config().class_targets.size());
  net::PacketPtr p = net::make_packet(flow, 0, link.first, link.second,
                                      ispn.net().sim().now(), 1000);
  p->service = net::ServiceClass::kGuaranteed;
  EXPECT_EQ(s.guaranteed_packets(flow), 0u);
  s.enqueue(std::move(p), ispn.net().sim().now());
  int found = -1;
  for (int level = 0; level <= levels; ++level) {
    if (s.class_packets(level) == 1) found = level;
  }
  (void)s.dequeue(ispn.net().sim().now());
  return found;
}

std::vector<net::FlowId> ids(std::initializer_list<net::FlowId> l) {
  return l;
}

class RerouteFlow : public ::testing::Test {
 protected:
  RerouteFlow() : ispn_(config()), t_(build_detour(ispn_)) {}

  LinkId ab() const { return {t_.a, t_.b}; }
  LinkId bc() const { return {t_.b, t_.c}; }
  LinkId bd() const { return {t_.b, t_.d}; }
  LinkId dc() const { return {t_.d, t_.c}; }

  /// Fills D->C with a guaranteed flow the detour cannot fit beside.
  void block_detour() {
    (void)ispn_.open_flow(guaranteed(kBlocker, t_.hd, t_.hc, kBlockerRate));
  }

  static constexpr net::FlowId kFlow = 1;
  static constexpr net::FlowId kBlocker = 2;
  IspnNetwork ispn_;
  Detour t_;
};

TEST_F(RerouteFlow, GuaranteedRerouted) {
  auto h = ispn_.open_flow(guaranteed(kFlow, t_.ha, t_.hc, kGuaranteedRate));
  ASSERT_EQ(h.links, (std::vector<LinkId>{ab(), bc()}));
  ispn_.net().set_link_up(t_.b, t_.c, false);
  // Queued after the failure, so the link's own flush cannot take them:
  // A->B stays on the path, B->C is left behind.
  queue_guaranteed(ispn_, ab(), kFlow);
  queue_guaranteed(ispn_, bc(), kFlow);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kRerouted);
  EXPECT_EQ(h.links, (std::vector<LinkId>{ab(), bd(), dc()}));
  EXPECT_TRUE(h.commitment.admitted);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kGuaranteed);
  EXPECT_TRUE(ispn_.admission().committed(kFlow));

  for (const LinkId& link : {ab(), bd(), dc()}) {
    EXPECT_DOUBLE_EQ(ispn_.scheduler(link).guaranteed_rate(),
                     kGuaranteedRate);
    EXPECT_DOUBLE_EQ(ispn_.admission().guaranteed_rate(link),
                     kGuaranteedRate);
  }
  EXPECT_DOUBLE_EQ(ispn_.scheduler(bc()).guaranteed_rate(), 0.0);
  EXPECT_DOUBLE_EQ(ispn_.admission().guaranteed_rate(bc()), 0.0);

  EXPECT_EQ(ispn_.flows_crossing(t_.a, t_.b), ids({kFlow}));
  EXPECT_EQ(ispn_.flows_crossing(t_.b, t_.c), ids({}));
  EXPECT_EQ(ispn_.flows_crossing(t_.b, t_.d), ids({kFlow}));
  EXPECT_EQ(ispn_.flows_crossing(t_.d, t_.c), ids({kFlow}));

  // The shared link kept its registration and the packet queued there;
  // the abandoned link's packet is a failure casualty.
  EXPECT_EQ(ispn_.scheduler(ab()).guaranteed_packets(kFlow), 1u);
  EXPECT_EQ(ispn_.scheduler(bc()).guaranteed_packets(kFlow), 0u);
  EXPECT_EQ(ispn_.scheduler(bc()).packets(), 0u);
  EXPECT_EQ(ispn_.net().stats(kFlow).failed_link_drops, 1u);
}

TEST_F(RerouteFlow, PredictedRerouted) {
  auto h = ispn_.open_flow(predicted(kFlow, t_.ha, t_.hc));
  ASSERT_EQ(h.links, (std::vector<LinkId>{ab(), bc()}));
  EXPECT_EQ(predicted_level(ispn_, ab(), kFlow), 1);
  EXPECT_EQ(predicted_level(ispn_, bc(), kFlow), 1);
  ispn_.net().set_link_up(t_.b, t_.c, false);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kRerouted);
  EXPECT_EQ(h.links, (std::vector<LinkId>{ab(), bd(), dc()}));
  EXPECT_EQ(h.commitment.priority_per_hop, (std::vector<int>{0, 0, 0}));
  EXPECT_TRUE(ispn_.admission().committed(kFlow));

  // The shared link takes the fresh (tighter) class; the abandoned link
  // forgets the flow, which there falls to the datagram level.
  for (const LinkId& link : {ab(), bd(), dc()}) {
    EXPECT_EQ(predicted_level(ispn_, link, kFlow), 0);
    EXPECT_DOUBLE_EQ(ispn_.admission().predicted_rate(link), 85000.0);
    EXPECT_DOUBLE_EQ(ispn_.scheduler(link).guaranteed_rate(), 0.0);
  }
  EXPECT_EQ(predicted_level(ispn_, bc(), kFlow), 2);
  EXPECT_DOUBLE_EQ(ispn_.admission().predicted_rate(bc()), 0.0);
  EXPECT_DOUBLE_EQ(ispn_.scheduler(bc()).guaranteed_rate(), 0.0);

  EXPECT_EQ(ispn_.flows_crossing(t_.a, t_.b), ids({kFlow}));
  EXPECT_EQ(ispn_.flows_crossing(t_.b, t_.c), ids({}));
  EXPECT_EQ(ispn_.flows_crossing(t_.b, t_.d), ids({kFlow}));
  EXPECT_EQ(ispn_.flows_crossing(t_.d, t_.c), ids({kFlow}));
}

/// Refused on the detour: the flow holds nothing anywhere afterwards, and
/// every queued guaranteed packet of it has been expelled.
void expect_refused_everywhere(IspnNetwork& ispn, const Detour& t,
                               net::FlowId flow, net::FlowId blocker,
                               bool was_guaranteed) {
  EXPECT_FALSE(ispn.admission().committed(flow));
  for (const LinkId& link : {LinkId{t.a, t.b}, LinkId{t.b, t.c},
                             LinkId{t.b, t.d}}) {
    EXPECT_DOUBLE_EQ(ispn.scheduler(link).guaranteed_rate(), 0.0);
    EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 0.0);
    EXPECT_DOUBLE_EQ(ispn.admission().predicted_rate(link), 0.0);
    EXPECT_EQ(ispn.scheduler(link).guaranteed_packets(flow), 0u);
    if (!was_guaranteed) {
      EXPECT_EQ(predicted_level(ispn, link, flow), 2);
    }
  }
  if (!was_guaranteed) {
    EXPECT_EQ(predicted_level(ispn, {t.d, t.c}, flow), 2);
  }
  EXPECT_DOUBLE_EQ(ispn.scheduler({t.d, t.c}).guaranteed_rate(),
                   kBlockerRate);
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate({t.d, t.c}),
                   kBlockerRate);
  EXPECT_TRUE(ispn.admission().committed(blocker));
  EXPECT_EQ(ispn.flows_crossing(t.a, t.b), ids({}));
  EXPECT_EQ(ispn.flows_crossing(t.b, t.c), ids({}));
  EXPECT_EQ(ispn.flows_crossing(t.b, t.d), ids({}));
  EXPECT_EQ(ispn.flows_crossing(t.d, t.c), ids({blocker}));
}

TEST_F(RerouteFlow, GuaranteedDegraded) {
  block_detour();
  auto h = ispn_.open_flow(guaranteed(kFlow, t_.ha, t_.hc, kGuaranteedRate));
  ispn_.net().set_link_up(t_.b, t_.c, false);
  queue_guaranteed(ispn_, ab(), kFlow);
  queue_guaranteed(ispn_, bc(), kFlow);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kDegraded);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kDatagram);
  EXPECT_FALSE(h.spec.guaranteed.has_value());
  EXPECT_TRUE(h.commitment.admitted);  // datagram service is never refused
  EXPECT_EQ(h.links, (std::vector<LinkId>{ab(), bd(), dc()}));
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, true);
  // Both queued packets sat on links the flow no longer holds.
  EXPECT_EQ(ispn_.net().stats(kFlow).failed_link_drops, 2u);
}

TEST_F(RerouteFlow, PredictedDegraded) {
  block_detour();
  auto h = ispn_.open_flow(predicted(kFlow, t_.ha, t_.hc));
  ispn_.net().set_link_up(t_.b, t_.c, false);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kDegraded);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kDatagram);
  EXPECT_FALSE(h.spec.predicted.has_value());
  EXPECT_TRUE(h.commitment.admitted);
  EXPECT_TRUE(h.commitment.priority_per_hop.empty());
  EXPECT_EQ(h.links, (std::vector<LinkId>{ab(), bd(), dc()}));
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, false);
}

TEST_F(RerouteFlow, GuaranteedClosed) {
  block_detour();
  auto h = ispn_.open_flow(guaranteed(kFlow, t_.ha, t_.hc, kGuaranteedRate));
  ispn_.net().set_link_up(t_.b, t_.c, false);
  queue_guaranteed(ispn_, ab(), kFlow);
  queue_guaranteed(ispn_, bc(), kFlow);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/false),
            Outcome::kClosed);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kGuaranteed);
  EXPECT_FALSE(h.commitment.admitted);
  EXPECT_TRUE(h.links.empty());
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, true);
  EXPECT_EQ(ispn_.net().stats(kFlow).failed_link_drops, 2u);
}

TEST_F(RerouteFlow, PredictedClosed) {
  block_detour();
  auto h = ispn_.open_flow(predicted(kFlow, t_.ha, t_.hc));
  ispn_.net().set_link_up(t_.b, t_.c, false);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/false),
            Outcome::kClosed);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kPredicted);
  EXPECT_FALSE(h.commitment.admitted);
  EXPECT_TRUE(h.links.empty());
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, false);
}

TEST_F(RerouteFlow, GuaranteedOrphaned) {
  block_detour();
  auto h = ispn_.open_flow(guaranteed(kFlow, t_.ha, t_.hc, kGuaranteedRate));
  ispn_.net().set_link_up(t_.a, t_.b, false);
  ASSERT_FALSE(ispn_.net().reachable(t_.ha, t_.hc));
  queue_guaranteed(ispn_, ab(), kFlow);
  queue_guaranteed(ispn_, bc(), kFlow);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kOrphaned);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kGuaranteed);
  EXPECT_FALSE(h.commitment.admitted);
  EXPECT_TRUE(h.links.empty());
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, true);
  EXPECT_EQ(ispn_.net().stats(kFlow).failed_link_drops, 2u);
}

TEST_F(RerouteFlow, PredictedOrphaned) {
  block_detour();
  auto h = ispn_.open_flow(predicted(kFlow, t_.ha, t_.hc));
  ispn_.net().set_link_up(t_.a, t_.b, false);

  EXPECT_EQ(ispn_.reroute_flow(h, /*degrade_to_datagram=*/true),
            Outcome::kOrphaned);
  EXPECT_EQ(h.spec.service, net::ServiceClass::kPredicted);
  EXPECT_FALSE(h.commitment.admitted);
  EXPECT_TRUE(h.links.empty());
  expect_refused_everywhere(ispn_, t_, kFlow, kBlocker, false);
}

}  // namespace
}  // namespace ispn::core
