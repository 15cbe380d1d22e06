// Dynamic service teardown: close_flow releases admission commitments and
// scheduler state, so capacity can be re-sold.

#include <gtest/gtest.h>

#include "core/builder.h"

namespace ispn::core {
namespace {

IspnNetwork::Config config_with_admission() {
  IspnNetwork::Config c;
  c.class_targets = {0.016, 0.16};
  c.admission.mode = AdmissionController::Mode::kParameterBased;
  c.enforce_admission = true;
  return c;
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

TEST(CloseFlow, GuaranteedCapacityIsResellable) {
  IspnNetwork ispn(config_with_admission());
  const auto topo = ispn.build_chain(2);
  const auto h1 = topo.hosts[0];
  const auto h2 = topo.hosts[1];
  const LinkId link{topo.switches[0], topo.switches[1]};

  auto big = ispn.open_flow(guaranteed(1, h1, h2, 8e5));
  EXPECT_THROW((void)ispn.open_flow(guaranteed(2, h1, h2, 8e5)),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(ispn.scheduler(link).guaranteed_rate(), 8e5);

  ispn.close_flow(big);
  EXPECT_DOUBLE_EQ(ispn.scheduler(link).guaranteed_rate(), 0.0);
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 0.0);
  EXPECT_NO_THROW((void)ispn.open_flow(guaranteed(2, h1, h2, 8e5)));
}

TEST(CloseFlow, PredictedCommitmentReleased) {
  IspnNetwork ispn(config_with_admission());
  const auto topo = ispn.build_chain(2);
  const LinkId link{topo.switches[0], topo.switches[1]};

  FlowSpec spec;
  spec.flow = 1;
  spec.src = topo.hosts[0];
  spec.dst = topo.hosts[1];
  spec.service = net::ServiceClass::kPredicted;
  spec.predicted = PredictedSpec{{85000.0, 5000.0}, 0.16, 0.01};
  auto handle = ispn.open_flow(spec);
  EXPECT_DOUBLE_EQ(ispn.admission().predicted_rate(link), 85000.0);
  ispn.close_flow(handle);
  EXPECT_DOUBLE_EQ(ispn.admission().predicted_rate(link), 0.0);
}

TEST(CloseFlow, Flow0WeightRestored) {
  IspnNetwork ispn(config_with_admission());
  const auto topo = ispn.build_chain(2);
  const LinkId link{topo.switches[0], topo.switches[1]};
  const double before = ispn.scheduler(link).flow0_weight();
  auto handle =
      ispn.open_flow(guaranteed(1, topo.hosts[0], topo.hosts[1], 3e5));
  EXPECT_DOUBLE_EQ(ispn.scheduler(link).flow0_weight(), before - 3e5);
  ispn.close_flow(handle);
  EXPECT_DOUBLE_EQ(ispn.scheduler(link).flow0_weight(), before);
}

TEST(CloseFlow, DatagramCloseIsNoOp) {
  IspnNetwork ispn(config_with_admission());
  const auto topo = ispn.build_chain(2);
  FlowSpec spec;
  spec.flow = 1;
  spec.src = topo.hosts[0];
  spec.dst = topo.hosts[1];
  spec.service = net::ServiceClass::kDatagram;
  auto handle = ispn.open_flow(spec);
  EXPECT_NO_FATAL_FAILURE(ispn.close_flow(handle));
}

TEST(CloseFlow, DoubleCloseNeverReleasesTwice) {
  // Regression: a teardown racing a reroute used to subtract the flow's
  // committed rate twice, leaving the admission ledger negative and the
  // capacity sellable beyond the link.  The second close must be a no-op.
  IspnNetwork ispn(config_with_admission());
  const auto topo = ispn.build_chain(2);
  const LinkId link{topo.switches[0], topo.switches[1]};

  auto a = ispn.open_flow(guaranteed(1, topo.hosts[0], topo.hosts[1], 3e5));
  auto b = ispn.open_flow(guaranteed(2, topo.hosts[0], topo.hosts[1], 4e5));
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 7e5);

  auto stale = a;  // a second handle to the same flow (the race)
  ispn.close_flow(a);
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 4e5);
  EXPECT_NO_FATAL_FAILURE(ispn.close_flow(stale));
  // b's commitment must survive the stale close untouched.
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 4e5);
  EXPECT_DOUBLE_EQ(ispn.scheduler(link).guaranteed_rate(), 4e5);
  ispn.close_flow(b);
  EXPECT_DOUBLE_EQ(ispn.admission().guaranteed_rate(link), 0.0);
  // Full capacity resellable exactly once everything is released.
  EXPECT_NO_THROW(
      (void)ispn.open_flow(guaranteed(3, topo.hosts[0], topo.hosts[1], 8e5)));
}

TEST(CloseFlow, AdmissionReleaseIsIdempotent) {
  // The controller itself: release() hands back the STORED commitment
  // (not the caller's view of it), exactly once.
  const std::vector<sim::Duration> targets = {0.016, 0.16};
  AdmissionController ac({AdmissionController::Mode::kParameterBased, 0.1});
  const LinkId link{0, 1};
  ac.register_link(link, 1e6, targets);

  FlowSpec spec = guaranteed(1, 10, 11, 3e5);
  const auto c = ac.request(spec, {link}, 0.0);
  ASSERT_TRUE(c.admitted);
  EXPECT_DOUBLE_EQ(ac.guaranteed_rate(link), 3e5);
  EXPECT_TRUE(ac.release(spec));
  EXPECT_DOUBLE_EQ(ac.guaranteed_rate(link), 0.0);
  EXPECT_FALSE(ac.release(spec));  // nothing left to hand back
  EXPECT_DOUBLE_EQ(ac.guaranteed_rate(link), 0.0);
}

TEST(CloseFlow, MidTrafficGuaranteedTeardownAfterDrain) {
  // Run traffic, stop the source, drain, close — then the network keeps
  // serving other flows normally.
  IspnNetwork::Config config = config_with_admission();
  config.enforce_admission = false;
  IspnNetwork ispn(config);
  const auto topo = ispn.build_chain(2);
  auto handle =
      ispn.open_flow(guaranteed(1, topo.hosts[0], topo.hosts[1], 1.7e5));
  auto& source = ispn.attach_onoff_source(handle, {}, 0,
                                          traffic::TokenBucketSpec{85000.0,
                                                                   50000.0});
  ispn.attach_sink(handle);
  source.start(0);
  ispn.net().sim().run_until(10.0);
  source.stop();
  ispn.net().sim().run_until(12.0);  // drain
  EXPECT_NO_FATAL_FAILURE(ispn.close_flow(handle));
  EXPECT_GT(ispn.net().stats(1).received, 500u);
}

}  // namespace
}  // namespace ispn::core
