// Admission control: the paper's two criteria, both estimation modes,
// commit/release bookkeeping.

#include "core/admission.h"

#include <gtest/gtest.h>

namespace ispn::core {
namespace {

constexpr sim::Rate kMu = 1e6;
const std::vector<sim::Duration> kTargets = {0.016, 0.16};
const LinkId kLink{0, 1};

FlowSpec guaranteed(sim::Rate r, net::FlowId id = 1) {
  FlowSpec s;
  s.flow = id;
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{r};
  return s;
}

FlowSpec predicted(sim::Rate r, sim::Bits b, sim::Duration target,
                   net::FlowId id = 2) {
  FlowSpec s;
  s.flow = id;
  s.service = net::ServiceClass::kPredicted;
  s.predicted = PredictedSpec{{r, b}, target, 0.01};
  return s;
}

AdmissionController parameter_controller() {
  AdmissionController ac({AdmissionController::Mode::kParameterBased, 0.1});
  ac.register_link(kLink, kMu, kTargets);
  return ac;
}

TEST(Admission, DatagramAlwaysAdmitted) {
  auto ac = parameter_controller();
  FlowSpec s;
  s.service = net::ServiceClass::kDatagram;
  EXPECT_TRUE(ac.request(s, {kLink}, 0.0).admitted);
}

TEST(Admission, GuaranteedWithinQuotaAdmitted) {
  auto ac = parameter_controller();
  const auto c = ac.request(guaranteed(5e5), {kLink}, 0.0);
  EXPECT_TRUE(c.admitted);
  EXPECT_DOUBLE_EQ(ac.guaranteed_rate(kLink), 5e5);
}

TEST(Admission, GuaranteedBeyondQuotaRejected) {
  auto ac = parameter_controller();
  EXPECT_TRUE(ac.request(guaranteed(5e5, 1), {kLink}, 0.0).admitted);
  const auto c = ac.request(guaranteed(5e5, 2), {kLink}, 0.0);
  EXPECT_FALSE(c.admitted);
  EXPECT_FALSE(c.reason.empty());
}

TEST(Admission, DatagramQuotaCriterion) {
  // Criterion 1: r + nu must stay under 0.9 mu.
  auto ac = parameter_controller();
  EXPECT_TRUE(ac.request(guaranteed(8e5, 1), {kLink}, 0.0).admitted);
  // 0.8 committed; another 0.15 would hit 0.95 > 0.9.
  EXPECT_FALSE(
      ac.request(predicted(1.5e5, 1000.0, 0.2, 2), {kLink}, 0.0).admitted);
  // 0.05 more still fits (0.85 < 0.9) if burst is tiny.
  EXPECT_TRUE(
      ac.request(predicted(5e4, 100.0, 0.2, 3), {kLink}, 0.0).admitted);
}

TEST(Admission, PredictedPicksCheapestAdequateClass) {
  auto ac = parameter_controller();
  // Per-hop target 0.2 over one link: class 1 (0.16) suffices.
  auto c = ac.request(predicted(1e5, 1000.0, 0.2, 1), {kLink}, 0.0);
  ASSERT_TRUE(c.admitted);
  ASSERT_EQ(c.priority_per_hop.size(), 1u);
  EXPECT_EQ(c.priority_per_hop[0], 1);
  EXPECT_NEAR(*c.advertised_bound, 0.16, 1e-12);
  // Tighter request: needs class 0.
  auto c2 = ac.request(predicted(1e5, 1000.0, 0.03, 2), {kLink}, 0.0);
  ASSERT_TRUE(c2.admitted);
  EXPECT_EQ(c2.priority_per_hop[0], 0);
}

TEST(Admission, PredictedImpossibleTargetRejected) {
  auto ac = parameter_controller();
  const auto c = ac.request(predicted(1e5, 1000.0, 0.001, 1), {kLink}, 0.0);
  EXPECT_FALSE(c.admitted);
  EXPECT_NE(c.reason.find("no class"), std::string::npos);
}

TEST(Admission, BurstProtectionCriterion) {
  // Criterion 2: b must fit within (D_j - d_j) * headroom for all classes
  // at or below the requested priority.
  auto ac = parameter_controller();
  // headroom ~ 0.9e6 after r=0; class 0 slack 0.016 => b < ~14.4k bits.
  EXPECT_TRUE(
      ac.request(predicted(1e4, 10000.0, 0.016, 1), {kLink}, 0.0).admitted);
  EXPECT_FALSE(
      ac.request(predicted(1e4, 20000.0, 0.016, 2), {kLink}, 0.0).admitted);
  // The same 20k burst is fine at the loose class (slack 0.16 => 144k).
  EXPECT_TRUE(
      ac.request(predicted(1e4, 20000.0, 0.16, 3), {kLink}, 0.0).admitted);
}

TEST(Admission, GuaranteedCheckedAgainstAllClasses) {
  // A guaranteed flow is higher priority than every class, so its rate
  // counts against them all via criterion 1 (its b is not declared).
  auto ac = parameter_controller();
  EXPECT_TRUE(ac.request(guaranteed(8.5e5, 1), {kLink}, 0.0).admitted);
  EXPECT_FALSE(ac.request(guaranteed(6e4, 2), {kLink}, 0.0).admitted);
}

TEST(Admission, MultiLinkPathAllMustPass) {
  AdmissionController ac({AdmissionController::Mode::kParameterBased, 0.1});
  const LinkId l1{0, 1}, l2{1, 2};
  ac.register_link(l1, kMu, kTargets);
  ac.register_link(l2, kMu, kTargets);
  // Load l2 heavily.
  EXPECT_TRUE(ac.request(guaranteed(8e5, 1), {l2}, 0.0).admitted);
  // A path crossing both fails because of l2.
  EXPECT_FALSE(
      ac.request(predicted(2e5, 1000.0, 0.4, 2), {l1, l2}, 0.0).admitted);
  // l1 alone is fine.
  EXPECT_TRUE(
      ac.request(predicted(2e5, 1000.0, 0.2, 3), {l1}, 0.0).admitted);
}

TEST(Admission, AdvertisedBoundSumsPerHopTargets) {
  AdmissionController ac({AdmissionController::Mode::kParameterBased, 0.1});
  const LinkId l1{0, 1}, l2{1, 2}, l3{2, 3};
  for (const auto& l : {l1, l2, l3}) ac.register_link(l, kMu, kTargets);
  const auto c =
      ac.request(predicted(1e5, 1000.0, 0.6, 1), {l1, l2, l3}, 0.0);
  ASSERT_TRUE(c.admitted);
  EXPECT_NEAR(*c.advertised_bound, 3 * 0.16, 1e-12);
}

TEST(Admission, ReleaseRestoresCapacity) {
  auto ac = parameter_controller();
  const auto spec = guaranteed(8e5);
  EXPECT_TRUE(ac.request(spec, {kLink}, 0.0).admitted);
  EXPECT_FALSE(ac.request(guaranteed(8e5, 2), {kLink}, 0.0).admitted);
  ac.release(spec);
  EXPECT_DOUBLE_EQ(ac.guaranteed_rate(kLink), 0.0);
  EXPECT_TRUE(ac.request(guaranteed(8e5, 2), {kLink}, 0.0).admitted);
}

TEST(Admission, MeasurementModeUsesMeasuredUtilization) {
  LinkMeasurement meas({kMu, 2, 10.0, 1.0});
  AdmissionController ac({AdmissionController::Mode::kMeasurementBased, 0.1});
  ac.register_link(kLink, kMu, kTargets, &meas);
  // No measured traffic yet: even a large request passes criterion 1.
  EXPECT_TRUE(
      ac.request(predicted(8e5, 1000.0, 0.2, 1), {kLink}, 0.0).admitted);
  // Now the link measures ~0.85 utilisation: a 10% flow no longer fits.
  for (int i = 0; i < 100; ++i) {
    meas.on_realtime_tx(8500.0, 0.01 * i);  // 850 kb over 1 s
  }
  EXPECT_FALSE(
      ac.request(predicted(1e5, 1000.0, 0.2, 2), {kLink}, 1.0).admitted);
}

TEST(Admission, MeasurementModeUsesMeasuredDelaySlack) {
  LinkMeasurement meas({kMu, 2, 10.0, 1.0});
  AdmissionController ac({AdmissionController::Mode::kMeasurementBased, 0.1});
  ac.register_link(kLink, kMu, kTargets, &meas);
  // Class 1 already sees 0.15 s delays: slack 0.01 s, headroom ~0.9e6
  // => b must be < 9000 bits.
  meas.on_class_wait(1, 0.15, 0.5);
  EXPECT_FALSE(
      ac.request(predicted(1e4, 20000.0, 0.16, 1), {kLink}, 1.0).admitted);
  EXPECT_TRUE(
      ac.request(predicted(1e4, 5000.0, 0.16, 2), {kLink}, 1.0).admitted);
}

}  // namespace
}  // namespace ispn::core
