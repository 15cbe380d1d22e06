// IspnNetwork end-to-end wiring: admission + unified schedulers +
// measurement + sources + sinks.

#include "core/builder.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiments.h"

namespace ispn::core {
namespace {

IspnNetwork::Config base_config(bool enforce = true) {
  IspnNetwork::Config c;
  c.class_targets = {0.016, 0.16};
  c.enforce_admission = enforce;
  return c;
}

FlowSpec predicted_spec(net::FlowId id, net::NodeId src, net::NodeId dst,
                        sim::Duration target = 0.5) {
  FlowSpec s;
  s.flow = id;
  s.src = src;
  s.dst = dst;
  s.service = net::ServiceClass::kPredicted;
  s.predicted = PredictedSpec{{85000.0, 50000.0}, target, 0.01};
  return s;
}

TEST(Builder, ChainHasSchedulersAndMeasurementPerDirection) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(3);
  for (std::size_t i = 0; i + 1 < topo.switches.size(); ++i) {
    const LinkId fwd{topo.switches[i], topo.switches[i + 1]};
    const LinkId rev{topo.switches[i + 1], topo.switches[i]};
    EXPECT_NO_THROW((void)ispn.scheduler(fwd));
    EXPECT_NO_THROW((void)ispn.scheduler(rev));
    EXPECT_NO_THROW((void)ispn.measurement(fwd));
  }
}

TEST(Builder, RouteLinksSkipsHostAttachments) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(5);
  const auto links = ispn.route_links(topo.hosts[0], topo.hosts[4]);
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links.front().first, topo.switches[0]);
  EXPECT_EQ(links.back().second, topo.switches[4]);
}

TEST(Builder, GuaranteedFlowRegistersClockRates) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(3);
  FlowSpec s;
  s.flow = 1;
  s.src = topo.hosts[0];
  s.dst = topo.hosts[2];
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{170000.0};
  const auto handle = ispn.open_flow(s);
  EXPECT_TRUE(handle.commitment.admitted);
  for (const auto& link : handle.links) {
    EXPECT_DOUBLE_EQ(ispn.scheduler(link).guaranteed_rate(), 170000.0);
  }
}

TEST(Builder, PredictedFlowAssignedPriorities) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(3);
  const auto handle =
      ispn.open_flow(predicted_spec(1, topo.hosts[0], topo.hosts[2], 0.5));
  ASSERT_TRUE(handle.commitment.admitted);
  ASSERT_EQ(handle.commitment.priority_per_hop.size(), 2u);
  // 0.25 per hop: the loose class (0.16) suffices.
  EXPECT_EQ(handle.commitment.priority_per_hop[0], 1);
  EXPECT_NEAR(*handle.commitment.advertised_bound, 0.32, 1e-12);
}

TEST(Builder, RejectionThrowsWhenEnforced) {
  IspnNetwork ispn(base_config(true));
  const auto topo = ispn.build_chain(2);
  // Guaranteed rate above the 90% quota.
  FlowSpec s;
  s.flow = 1;
  s.src = topo.hosts[0];
  s.dst = topo.hosts[1];
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{950000.0};
  EXPECT_THROW((void)ispn.open_flow(s), std::runtime_error);
}

TEST(Builder, RejectionToleratedWhenNotEnforced) {
  IspnNetwork ispn(base_config(false));
  const auto topo = ispn.build_chain(2);
  const auto handle =
      ispn.open_flow(predicted_spec(1, topo.hosts[0], topo.hosts[1], 0.001));
  // Rejected (impossible target) but still configured with the tightest
  // class as a fallback.
  EXPECT_FALSE(handle.commitment.admitted);
  ASSERT_EQ(handle.commitment.priority_per_hop.size(), 1u);
}

TEST(Builder, OpenFlowRefusesUnreachableDestination) {
  // A partition leaves no path: the forced-configuration path must not
  // accept the hop-less route vacuously and configure the flow nowhere.
  FlowSpec g;
  g.flow = 1;
  g.service = net::ServiceClass::kGuaranteed;
  g.guaranteed = GuaranteedSpec{170000.0};
  FlowSpec d;
  d.flow = 2;
  for (const bool enforce : {true, false}) {
    IspnNetwork ispn(base_config(enforce));
    const auto topo = ispn.build_chain(3);
    ispn.net().set_link_up(topo.switches[1], topo.switches[2], false);
    for (FlowSpec s : {g, d, predicted_spec(3, 0, 0)}) {
      s.src = topo.hosts[0];
      s.dst = topo.hosts[2];
      if (enforce) {
        EXPECT_THROW((void)ispn.open_flow(s), std::runtime_error);
        continue;
      }
      const auto handle = ispn.open_flow(s);
      EXPECT_FALSE(handle.commitment.admitted);
      EXPECT_EQ(handle.commitment.reason, "unreachable");
      EXPECT_TRUE(handle.links.empty());
      EXPECT_TRUE(handle.commitment.priority_per_hop.empty());
    }
    // Nothing was registered on the link that is still up.
    const LinkId up{topo.switches[0], topo.switches[1]};
    EXPECT_DOUBLE_EQ(ispn.scheduler(up).guaranteed_rate(), 0.0);
    EXPECT_TRUE(ispn.flows_crossing(up.first, up.second).empty());
  }
}

TEST(Builder, GuaranteedBoundMatchesPgFormula) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(5);
  FlowSpec s;
  s.flow = 1;
  s.src = topo.hosts[0];
  s.dst = topo.hosts[4];
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{170000.0};
  const auto handle = ispn.open_flow(s);
  const traffic::TokenBucketSpec bucket{170000.0, 1000.0};
  EXPECT_NEAR(ispn.guaranteed_bound(handle, bucket) / sim::paper::kPacketTime,
              23.53, 0.005);
}

TEST(Builder, EndToEndTrafficFlows) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(3);
  const auto handle =
      ispn.open_flow(predicted_spec(1, topo.hosts[0], topo.hosts[2], 0.5));
  auto& source = ispn.attach_onoff_source(handle, {}, 0);
  ispn.attach_sink(handle);
  source.start(0);
  ispn.net().sim().run_until(30.0);
  const auto& stats = ispn.net().stats(1);
  EXPECT_GT(stats.received, 2000u);
  EXPECT_GT(stats.source_drops, 0u);  // edge policing active
  EXPECT_LT(stats.net_loss_rate(), 0.01);
}

TEST(Builder, MeasurementSeesRealtimeTraffic) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(2);
  const auto handle =
      ispn.open_flow(predicted_spec(1, topo.hosts[0], topo.hosts[1], 0.5));
  auto& source = ispn.attach_onoff_source(handle, {}, 0);
  ispn.attach_sink(handle);
  source.start(0);
  ispn.net().sim().run_until(30.0);
  const LinkId link{topo.switches[0], topo.switches[1]};
  // ~85 kb/s of real-time traffic on a 1 Mb/s link (x1.2 safety).
  const double nu = ispn.measurement(link).measured_utilization(30.0);
  EXPECT_GT(nu, 0.05);
  EXPECT_LT(nu, 0.3);
  EXPECT_NEAR(ispn.realtime_utilization(link, 30.0), 0.085, 0.02);
}

TEST(Builder, TcpAttachesAndTransfers) {
  IspnNetwork ispn(base_config());
  const auto topo = ispn.build_chain(3);
  FlowSpec s;
  s.flow = 7;
  s.src = topo.hosts[0];
  s.dst = topo.hosts[2];
  s.service = net::ServiceClass::kDatagram;
  const auto handle = ispn.open_flow(s);
  auto [tcp_src, tcp_sink] = ispn.attach_tcp(handle);
  tcp_src.start(0);
  ispn.net().sim().run_until(10.0);
  EXPECT_GT(tcp_src.delivered(), 5000u);
  EXPECT_EQ(tcp_sink.rcv_next(), tcp_src.delivered());
}

TEST(Builder, LayoutHasPaperInvariants) {
  const auto layout = paper_flow_layout();
  ASSERT_EQ(layout.size(), 22u);
  // Path-length histogram: 12 / 4 / 4 / 2.
  int by_len[5] = {0, 0, 0, 0, 0};
  for (const auto& f : layout) ++by_len[f.path_len()];
  EXPECT_EQ(by_len[1], 12);
  EXPECT_EQ(by_len[2], 4);
  EXPECT_EQ(by_len[3], 4);
  EXPECT_EQ(by_len[4], 2);
  // 10 flows per link; per-link role mix 2 GP + 1 GA + 3 PH + 4 PL.
  for (int link = 0; link < 4; ++link) {
    int total = 0, gp = 0, ga = 0, ph = 0, pl = 0;
    for (const auto& f : layout) {
      if (f.src_sw <= link && link < f.dst_sw) {
        ++total;
        switch (f.role) {
          case Table3Role::kGuaranteedPeak: ++gp; break;
          case Table3Role::kGuaranteedAverage: ++ga; break;
          case Table3Role::kPredictedHigh: ++ph; break;
          case Table3Role::kPredictedLow: ++pl; break;
        }
      }
    }
    EXPECT_EQ(total, 10) << "link " << link;
    EXPECT_EQ(gp, 2) << "link " << link;
    EXPECT_EQ(ga, 1) << "link " << link;
    EXPECT_EQ(ph, 3) << "link " << link;
    EXPECT_EQ(pl, 4) << "link " << link;
  }
}

}  // namespace
}  // namespace ispn::core
