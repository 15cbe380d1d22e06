#include "traffic/token_bucket.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace ispn::traffic {
namespace {

TEST(TokenBucket, StartsFull) {
  TokenBucket tb({1000.0, 5000.0});
  EXPECT_DOUBLE_EQ(tb.tokens(0.0), 5000.0);
}

TEST(TokenBucket, ConsumeFromFullBucket) {
  TokenBucket tb({1000.0, 5000.0});
  EXPECT_TRUE(tb.try_consume(3000.0, 0.0));
  EXPECT_DOUBLE_EQ(tb.tokens(0.0), 2000.0);
}

TEST(TokenBucket, RejectsWhenInsufficient) {
  TokenBucket tb({1000.0, 5000.0});
  EXPECT_TRUE(tb.try_consume(5000.0, 0.0));
  EXPECT_FALSE(tb.try_consume(1.0, 0.0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket tb({1000.0, 5000.0});
  EXPECT_TRUE(tb.try_consume(5000.0, 0.0));
  EXPECT_DOUBLE_EQ(tb.tokens(2.0), 2000.0);
  EXPECT_TRUE(tb.try_consume(2000.0, 2.0));
  EXPECT_FALSE(tb.try_consume(1.0, 2.0));
}

TEST(TokenBucket, RefillCapsAtDepth) {
  TokenBucket tb({1000.0, 5000.0});
  EXPECT_DOUBLE_EQ(tb.tokens(100.0), 5000.0);
}

TEST(TokenBucket, FailedConsumeKeepsTokens) {
  TokenBucket tb({1000.0, 2000.0});
  EXPECT_TRUE(tb.try_consume(1500.0, 0.0));
  EXPECT_FALSE(tb.try_consume(1000.0, 0.0));
  EXPECT_DOUBLE_EQ(tb.tokens(0.0), 500.0);
}

TEST(TokenBucket, BurstThenSteadyRateConforms) {
  // A source emitting the full depth at t=0 then exactly at rate r forever
  // (the greedy pattern) always conforms.
  TokenBucket tb({1000.0, 3000.0});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(tb.try_consume(1000.0, 0.0));
  for (int i = 1; i <= 50; ++i) {
    EXPECT_TRUE(tb.try_consume(1000.0, static_cast<double>(i)));
  }
}

// ---------------------------------------------------- batch conformance --

TEST(Conformance, PaperRecurrenceAcceptsConformingTrace) {
  // 1000-bit packets at 1/s against (1000 b/s, 2000 b): conforms.
  std::vector<TracePacket> trace;
  for (int i = 0; i < 20; ++i) trace.push_back({static_cast<double>(i), 1000});
  EXPECT_TRUE(conforms(trace, {1000.0, 2000.0}));
}

TEST(Conformance, RejectsBurstBeyondDepth) {
  std::vector<TracePacket> trace;
  for (int i = 0; i < 3; ++i) trace.push_back({0.0, 1000});
  EXPECT_TRUE(conforms(trace, {1.0, 3000.0}));
  trace.push_back({0.0, 1000});
  EXPECT_FALSE(conforms(trace, {1.0, 3000.0}));
}

TEST(Conformance, OnlineAndBatchAgree) {
  // Random trace: the online policer accepting every packet must imply
  // batch conformance of the accepted subtrace, for any (r, b).
  sim::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const TokenBucketSpec spec{rng.uniform(500, 2000), rng.uniform(1000, 9000)};
    TokenBucket tb(spec);
    std::vector<TracePacket> accepted;
    double t = 0;
    for (int i = 0; i < 200; ++i) {
      t += rng.exponential(0.7);
      if (tb.try_consume(1000.0, t)) accepted.push_back({t, 1000.0});
    }
    EXPECT_TRUE(conforms(accepted, spec)) << "trial " << trial;
  }
}

TEST(MinDepth, ExactForKnownBurst) {
  // 5 packets at t=0, rate 1000 b/s: need 5000 bits.
  std::vector<TracePacket> trace(5, TracePacket{0.0, 1000.0});
  EXPECT_DOUBLE_EQ(min_depth(trace, 1000.0), 5000.0);
}

TEST(MinDepth, AccountsForRefillBetweenBursts) {
  // Burst of 2 at t=0 and another at t=1 with r=1000: deficit peaks at
  // 2000, refills 1000, peaks at 2000+1000 = 3000.
  std::vector<TracePacket> trace = {
      {0.0, 1000}, {0.0, 1000}, {1.0, 1000}, {1.0, 1000}};
  EXPECT_DOUBLE_EQ(min_depth(trace, 1000.0), 3000.0);
}

class MinDepthProperty : public ::testing::TestWithParam<double> {};

TEST_P(MinDepthProperty, TraceConformsAtMinDepthNotBelow) {
  const double rate = GetParam();
  sim::Rng rng(7);
  std::vector<TracePacket> trace;
  double t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.exponential(1.0);
    trace.push_back({t, 1000.0});
  }
  const double b = min_depth(trace, rate);
  EXPECT_TRUE(conforms(trace, {rate, b}));
  if (b > 1000.0) {
    EXPECT_FALSE(conforms(trace, {rate, b - 500.0}));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, MinDepthProperty,
                         ::testing::Values(400.0, 800.0, 1000.0, 1500.0));

TEST(MinDepth, NonIncreasingInRate) {
  sim::Rng rng(15);
  std::vector<TracePacket> trace;
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(0.5);
    trace.push_back({t, 1000.0});
  }
  double prev = min_depth(trace, 100.0);
  for (double r : {200.0, 500.0, 1000.0, 2000.0, 5000.0}) {
    const double b = min_depth(trace, r);
    EXPECT_LE(b, prev + 1e-9) << "b(r) must be non-increasing";
    prev = b;
  }
}

}  // namespace
}  // namespace ispn::traffic
