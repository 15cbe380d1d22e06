// Property tests for admission invariants (fuzzed over 10+ seeds each):
//
//   1. An admitted guaranteed flow with a conforming (policed) source
//      never sees queueing delay beyond its Parekh–Gallager bound.
//   2. The committed guaranteed clock rates on a link never exceed the
//      real-time share (1 - datagram_quota) of its capacity, across any
//      interleaving of requests and releases.
//   3. A rejected flow leaves the network bit-identical to never having
//      asked: the subsequent packet schedule, to the last trace record,
//      does not depend on the refused request.
//   4. A link failure elsewhere in the fabric never costs an untouched
//      guaranteed flow its Parekh–Gallager bound: WFQ isolation plus
//      re-admission of every rerouted flow against the live measurements
//      keeps the surviving paths' guarantees intact.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/tracer.h"
#include "scenario/runner.h"
#include "sim/random.h"

namespace ispn {
namespace {

// --- 1: guaranteed delay bounds -------------------------------------------

TEST(AdmissionProperty, AdmittedGuaranteedFlowsRespectPgBound) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    scenario::ScenarioSpec spec;
    spec.fabric =
        seed % 2 == 0 ? scenario::FabricKind::kChain
                      : scenario::FabricKind::kParkingLot;
    spec.chain_switches = 5;
    spec.parking_hops = 3;
    spec.run_seconds = 5.0;
    spec.arrival_rate = 8.0;
    spec.mean_hold = 2.0;
    spec.target_flows = 24;
    spec.p_guaranteed = 0.5;  // guaranteed-heavy mix
    spec.p_predicted = 0.3;
    spec.seed = seed;
    scenario::ScenarioRunner runner(spec);
    const auto report = runner.run();
    ASSERT_TRUE(report.conserved()) << "seed " << seed;

    std::size_t checked = 0;
    for (const auto& f : report.flows) {
      if (f.service != net::ServiceClass::kGuaranteed || !f.admitted ||
          f.delivered == 0) {
        continue;
      }
      ++checked;
      ASSERT_GT(f.bound, 0.0);
      EXPECT_LE(f.max_delay, f.bound)
          << "seed " << seed << " flow " << f.flow << " (" << f.hops
          << " hops): guaranteed delay " << f.max_delay * 1e3
          << " ms exceeded its a-priori bound " << f.bound * 1e3 << " ms";
    }
    EXPECT_GT(checked, 0u) << "seed " << seed
                           << ": no guaranteed flow ever delivered";
  }
}

// --- 2: clock rates never oversubscribe -----------------------------------

TEST(AdmissionProperty, GuaranteedRatesNeverExceedRealtimeShare) {
  const std::vector<sim::Duration> targets = {0.008, 0.064};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::Rng rng(seed, 77);
    core::AdmissionController ac(
        {core::AdmissionController::Mode::kParameterBased, 0.1});
    constexpr int kLinks = 4;
    const sim::Rate mu = 1e6;
    std::vector<core::LinkId> links;
    for (int l = 0; l < kLinks; ++l) {
      links.push_back({l, l + 10});
      ac.register_link(links.back(), mu, targets);
    }

    struct Open {
      core::FlowSpec spec;
      std::vector<core::LinkId> path;
    };
    std::vector<Open> open;
    net::FlowId next_id = 0;
    for (int step = 0; step < 400; ++step) {
      if (open.empty() || rng.bernoulli(0.7)) {
        // Random request over a random contiguous path.
        const std::size_t first = rng.below(kLinks);
        const std::size_t len = 1 + rng.below(kLinks - first);
        std::vector<core::LinkId> path(links.begin() + first,
                                       links.begin() + first + len);
        core::FlowSpec fs;
        fs.flow = next_id++;
        if (rng.bernoulli(0.6)) {
          fs.service = net::ServiceClass::kGuaranteed;
          fs.guaranteed = core::GuaranteedSpec{rng.uniform(2e4, 4e5)};
        } else {
          fs.service = net::ServiceClass::kPredicted;
          fs.predicted = core::PredictedSpec{
              {rng.uniform(2e4, 2e5), rng.uniform(1e4, 6e4)},
              rng.uniform(0.02, 0.3), 0.01};
        }
        const auto c = ac.request(fs, path, 0.1 * step);
        if (c.admitted) open.push_back({fs, path});
      } else {
        // Random release.
        const std::size_t victim = rng.below(open.size());
        ac.release(open[victim].spec);
        open[victim] = open.back();
        open.pop_back();
      }
      // The invariant, after every operation, on every link.
      for (const auto& link : links) {
        ASSERT_LT(ac.guaranteed_rate(link), 0.9 * mu)
            << "seed " << seed << " step " << step;
        ASSERT_GE(ac.guaranteed_rate(link), 0.0)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(AdmissionProperty, ScenarioEndStateRespectsRealtimeShare) {
  // The same invariant through the whole runner (measurement mode, churn,
  // preemption): at run end every link's committed guaranteed rate is
  // still below the real-time share.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    scenario::ScenarioSpec spec = scenario::preset("churn");
    spec.run_seconds = 4.0;
    spec.seed = seed;
    scenario::ScenarioRunner runner(spec);
    const auto report = runner.run();
    ASSERT_TRUE(report.conserved()) << "seed " << seed;
    auto& ispn = runner.ispn();
    for (const core::LinkId& link : ispn.links()) {
      EXPECT_LT(ispn.admission().guaranteed_rate(link),
                0.9 * spec.link_rate)
          << "seed " << seed;
    }
  }
}

// --- 3: rejection leaves no trace -----------------------------------------

std::vector<net::PacketTracer::Record> churn_trace(std::uint64_t seed,
                                                   bool with_doomed_ask) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  spec.preempt_on_reject = false;  // the doomed ask must change nothing
  spec.run_seconds = 4.0;
  spec.seed = seed;
  scenario::ScenarioRunner runner(spec);
  net::PacketTracer tracer(1u << 22);
  runner.set_tracer(&tracer);
  runner.prepare();
  tracer.attach(runner.net());

  if (with_doomed_ask) {
    // Mid-run, present requests admission must refuse: an oversized
    // guaranteed clock, and a predicted delay no class can meet.  Both
    // run the full decision path (including the measurement queries that
    // rotate estimator state) and must leave the network bit-identical.
    sim::Rng rng(seed, 991);
    const sim::Time when = rng.uniform(1.0, 2.5);
    const sim::Rate huge = spec.link_rate * rng.uniform(1.0, 20.0);
    const auto od = runner.fabric().od_long.front();
    runner.net().sim().at(when, [&runner, huge, od] {
      auto& ispn = runner.ispn();
      core::FlowSpec g;
      g.flow = 20000;
      g.src = od.first;
      g.dst = od.second;
      g.service = net::ServiceClass::kGuaranteed;
      g.guaranteed = core::GuaranteedSpec{huge};
      const auto c1 = ispn.try_open_flow(g);
      EXPECT_FALSE(c1.commitment.admitted);

      core::FlowSpec p;
      p.flow = 20001;
      p.src = od.first;
      p.dst = od.second;
      p.service = net::ServiceClass::kPredicted;
      p.predicted = core::PredictedSpec{{8.5e4, 5e4}, 1e-6, 0.01};
      const auto c2 = ispn.try_open_flow(p);
      EXPECT_FALSE(c2.commitment.admitted);
    });
  }

  const auto report = runner.run();
  EXPECT_TRUE(report.conserved());
  return tracer.records();
}

TEST(AdmissionProperty, RejectedFlowLeavesStateBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto without = churn_trace(seed, false);
    const auto with = churn_trace(seed, true);
    ASSERT_GT(without.size(), 500u) << "seed " << seed;
    ASSERT_EQ(without.size(), with.size()) << "seed " << seed;
    for (std::size_t i = 0; i < without.size(); ++i) {
      const auto& a = without[i];
      const auto& b = with[i];
      ASSERT_TRUE(a.time == b.time && a.event == b.event &&
                  a.flow == b.flow && a.seq == b.seq && a.node == b.node &&
                  a.queueing_delay == b.queueing_delay &&
                  a.jitter_offset == b.jitter_offset)
          << "seed " << seed << ": record " << i
          << " diverged after a rejected request (flow " << b.flow
          << " seq " << b.seq << " t=" << b.time << ")";
    }
  }
}

// --- 4: failures never disturb untouched guaranteed flows -----------------

TEST(AdmissionProperty, SurvivingGuaranteedFlowsKeepPgBoundThroughFailures) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    scenario::ScenarioSpec spec = scenario::preset("failure");
    spec.run_seconds = 8.0;
    spec.p_guaranteed = 0.5;  // guaranteed-heavy mix
    spec.p_predicted = 0.25;
    spec.link_failure_rate = 0;  // one explicit mid-run failure + repair
    spec.link_failures.push_back({0, 2, 2.0, 5.0});  // mesh (0,0)<->(0,1)
    spec.seed = seed;
    scenario::ScenarioRunner runner(spec);
    const auto report = runner.run();
    ASSERT_TRUE(report.conserved()) << "seed " << seed;
    ASSERT_EQ(report.links_failed, 1u) << "seed " << seed;

    // Flows the failure touched (rerouted, degraded, torn down) carry
    // mixed-path deliveries and answer to no single a-priori bound; every
    // flow the failure did NOT touch still answers to its original one.
    std::size_t checked = 0;
    for (const auto& f : report.flows) {
      if (f.service != net::ServiceClass::kGuaranteed || !f.admitted ||
          f.degraded || f.reroutes > 0 || f.delivered == 0) {
        continue;
      }
      ++checked;
      ASSERT_GT(f.bound, 0.0) << "seed " << seed;
      EXPECT_LE(f.max_delay, f.bound)
          << "seed " << seed << " flow " << f.flow << " (" << f.hops
          << " hops): an unrelated link failure cost this untouched "
          << "guaranteed flow its bound (" << f.max_delay * 1e3 << " ms > "
          << f.bound * 1e3 << " ms)";
    }
    EXPECT_GT(checked, 0u) << "seed " << seed
                           << ": every guaranteed flow was touched";
  }
}

}  // namespace
}  // namespace ispn
