#include "core/flowspec.h"

#include <gtest/gtest.h>

namespace ispn::core {
namespace {

FlowSpec guaranteed_spec(sim::Rate r = 1.7e5) {
  FlowSpec s;
  s.flow = 1;
  s.src = 0;
  s.dst = 9;
  s.service = net::ServiceClass::kGuaranteed;
  s.guaranteed = GuaranteedSpec{r};
  return s;
}

FlowSpec predicted_spec() {
  FlowSpec s;
  s.flow = 2;
  s.src = 0;
  s.dst = 9;
  s.service = net::ServiceClass::kPredicted;
  s.predicted = PredictedSpec{{85000.0, 50000.0}, 0.05, 0.01};
  return s;
}

TEST(FlowSpec, ValidGuaranteed) { EXPECT_TRUE(guaranteed_spec().valid()); }

TEST(FlowSpec, ValidPredicted) { EXPECT_TRUE(predicted_spec().valid()); }

TEST(FlowSpec, ValidDatagram) {
  FlowSpec s;
  s.service = net::ServiceClass::kDatagram;
  EXPECT_TRUE(s.valid());
}

TEST(FlowSpec, GuaranteedNeedsPositiveRate) {
  auto s = guaranteed_spec(0.0);
  EXPECT_FALSE(s.valid());
}

TEST(FlowSpec, GuaranteedRejectsPredictedFields) {
  auto s = guaranteed_spec();
  s.predicted = PredictedSpec{};
  EXPECT_FALSE(s.valid());
}

TEST(FlowSpec, PredictedNeedsBucketAndTargets) {
  auto s = predicted_spec();
  s.predicted->bucket.rate = 0;
  EXPECT_FALSE(s.valid());
  s = predicted_spec();
  s.predicted->target_delay = 0;
  EXPECT_FALSE(s.valid());
}

TEST(FlowSpec, PredictedLossIsAFraction) {
  // L is a loss fraction: [0, 1], the same range the scenario key takes.
  auto s = predicted_spec();
  for (const double loss : {0.0, 0.5, 1.0}) {
    s.predicted->target_loss = loss;
    EXPECT_TRUE(s.valid()) << "L=" << loss;
  }
  for (const double loss : {-0.01, 1.5}) {
    s.predicted->target_loss = loss;
    EXPECT_FALSE(s.valid()) << "L=" << loss;
  }
}

TEST(FlowSpec, DatagramRejectsVariantFields) {
  FlowSpec s;
  s.service = net::ServiceClass::kDatagram;
  s.guaranteed = GuaranteedSpec{1.0};
  EXPECT_FALSE(s.valid());
}

TEST(FlowSpec, DescribeMentionsServiceAndParameters) {
  EXPECT_NE(describe(guaranteed_spec()).find("Guaranteed"), std::string::npos);
  EXPECT_NE(describe(guaranteed_spec()).find("170"), std::string::npos);
  EXPECT_NE(describe(predicted_spec()).find("Predicted"), std::string::npos);
  FlowSpec d;
  d.service = net::ServiceClass::kDatagram;
  EXPECT_NE(describe(d).find("Datagram"), std::string::npos);
}

TEST(ServiceClass, Labels) {
  EXPECT_STREQ(net::to_label(net::ServiceClass::kGuaranteed), "G");
  EXPECT_STREQ(net::to_label(net::ServiceClass::kPredicted), "P");
  EXPECT_STREQ(net::to_label(net::ServiceClass::kDatagram), "D");
}

}  // namespace
}  // namespace ispn::core
