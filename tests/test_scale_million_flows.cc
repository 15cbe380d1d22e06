// Million-flow state-scale soak (ctest label: `scale`).
//
// A fan-in tree carries ONE MILLION concurrent datagram CBR flows under
// hierarchical (two-level aggregate) scheduling.  Offered load is the same
// 360k pkt/s as the 1024-flow bench anchor — the sweep variable is flow
// STATE, not work — so everything that scales with flows is on trial at
// once: SlotMap-backed host sink tables, direct-mapped route/sink lookup
// caches plus the sink-slot label fast path, per-flow source timers
// piling a million keys onto the timing wheel (whose density-gated
// resolution adaptation must recognise this spread-out load and hold the
// base resolution), and the bounded per-class aggregates that keep
// per-link scheduler state flat.
//
// Invariants:
//
//   allocation    after the batch-start stagger (flows/total_pps ~ 2.9 s)
//                 and a warm margin, a 2-simulated-second window performs
//                 ZERO heap allocations — a million flows of state churn
//                 must be as allocation-clean at steady state as 64 (this
//                 binary links alloc_hook.cc's counting new/delete);
//
//   conservation  the packet ledger closes exactly at this scale;
//
//   completion    the run finishes in bounded wall time (enforced by the
//                 ctest timeout) and actually moves ~1M+ packets;
//
//   footprint     the peak resident set grows by at most kBytesPerFlow
//                 per flow from before the runner is built to after
//                 finish(): per-flow records must stay small and flat.
//
// Excluded with -LE "soak|scale" in sanitizer CI: the point is scale, and
// instrumented allocators would only slow it without adding coverage.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>

#include "alloc_hook.h"
#include "scenario/runner.h"

namespace ispn {
namespace {

/// Peak resident set so far, in bytes.
std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

/// Footprint budget: the measured peak growth, 1077 bytes per flow (GCC 12
/// Release, x86-64, glibc), plus 10% headroom.  Per-record mallocs (a
/// deque node per flow record, a map node per FlowStats) measured 1467.
constexpr double kBytesPerFlow = 1185;

TEST(ScaleMillionFlows, FanInSteadyStateAllocationFree) {
  constexpr int kFlows = 1 << 20;  // 1048576
  constexpr double kLinkRate = 1e8;  // 100k pkt/s of 1000-bit packets

  scenario::ScenarioSpec spec;
  spec.fabric = scenario::FabricKind::kFanInTree;
  spec.tree_depth = 2;
  spec.tree_width = 4;
  spec.link_rate = kLinkRate;
  spec.arrival_rate = 0;  // deterministic batch at t=0
  spec.mean_hold = 0;     // flows never depart
  spec.target_flows = kFlows;
  spec.p_guaranteed = 0;
  spec.p_predicted = 0;   // all datagram
  spec.source = scenario::SourceKind::kCbr;
  spec.hierarchical = true;
  // 90% load on the 4 leaf->root links: 360k pkt/s total, ~0.34 pkt/s per
  // flow, so the batch-start stagger spreads over flows/total_pps ~ 2.9 s.
  const double total_pps = 0.9 * kLinkRate * 4 / spec.packet_bits;
  spec.avg_rate_pps = total_pps / kFlows;
  spec.run_seconds = 6.0;
  spec.seed = 23;

  const std::uint64_t rss_before = peak_rss_bytes();
  scenario::ScenarioRunner runner(spec);
  runner.prepare();

  // Steady-state window: every source has emitted at least once by
  // t ~ 2.9 (stagger), margin to t=3.5, measure [3.5, 5.5].
  std::uint64_t allocs_at_start = 0;
  std::uint64_t delivered_at_start = 0;
  std::uint64_t steady_allocs = ~0ull;
  std::uint64_t window_delivered = 0;
  runner.net().sim().at(3.5, [&] {
    allocs_at_start = testhook::allocation_count();
    delivered_at_start = runner.delivered();
  });
  runner.net().sim().at(5.5, [&] {
    steady_allocs = testhook::allocation_count() - allocs_at_start;
    window_delivered = runner.delivered() - delivered_at_start;
  });

  const scenario::ScenarioReport report = runner.run();
  const double bytes_per_flow =
      static_cast<double>(peak_rss_bytes() - rss_before) / kFlows;
  std::printf("peak RSS growth: %.0f bytes per flow\n", bytes_per_flow);
  EXPECT_LE(bytes_per_flow, kBytesPerFlow)
      << "per-flow state outgrew its footprint budget";

  EXPECT_EQ(steady_allocs, 0u)
      << "steady-state phase allocated with a million live flows";
  EXPECT_GT(window_delivered, 500000u)
      << "measured window moved too little traffic to prove anything";

  // Scale actually reached.
  EXPECT_EQ(report.flows_offered, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(report.flows_admitted, static_cast<std::uint64_t>(kFlows));
  EXPECT_GE(report.generated, 1000000u);
  EXPECT_GE(report.delivered, 1000000u);

  // The ledger closes exactly at this scale.
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.queued_end, 0u);
  EXPECT_EQ(report.unclaimed, 0u);

  // Every delivery was label-switched: runner sources stamp the sink
  // slot at flow setup, so no delivery falls back to the table lookup —
  // exactly the path a million-flow round-robin needs, since a 256-line
  // direct-mapped cache would thrash by design.
  EXPECT_GE(report.sink_label_hits, report.delivered);
  EXPECT_GE(report.route_cache_hits + report.route_cache_misses,
            report.delivered);
}

}  // namespace
}  // namespace ispn
