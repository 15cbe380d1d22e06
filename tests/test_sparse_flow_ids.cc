// Sparse-FlowId regression: scheduler memory must scale with the number
// of ACTIVE flows, never with max(FlowId).
//
// The bug this pins: per-flow state lived in dense vectors indexed by the
// raw id, so registering flow 70000 resized them to 70001 entries — per
// link.  With util::SlotMap the same registration costs one compact slot.
// Ids {3, 70000} are the canonical shape; behaviour (ordering, weights,
// conservation) must be identical to what contiguous ids produce.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "net/network.h"
#include "net/packet_pool.h"
#include "sched/unified.h"
#include "sched/virtual_clock.h"
#include "sched/wfq.h"

namespace ispn {
namespace {

constexpr net::FlowId kSparse[] = {3, 70000};

net::PacketPtr make(net::PacketPool& pool, net::FlowId flow,
                    std::uint64_t seq, double now, net::ServiceClass service,
                    std::uint8_t priority = 0) {
  auto p = net::make_packet(pool, flow, seq, 0, 1, now);
  p->enqueued_at = now;
  p->service = service;
  p->priority = priority;
  return p;
}

TEST(SparseFlowIds, WfqSlotsScaleWithFlowsSeen) {
  sched::WfqScheduler wfq(sched::WfqScheduler::Config{1e6, 1000, 1.0});
  wfq.add_flow(kSparse[0], 2.0);
  wfq.add_flow(kSparse[1], 2.0);
  EXPECT_EQ(wfq.flow_slots(), 2u);
  EXPECT_DOUBLE_EQ(wfq.weight(kSparse[0]), 2.0);
  EXPECT_DOUBLE_EQ(wfq.weight(kSparse[1]), 2.0);
  EXPECT_DOUBLE_EQ(wfq.weight(12345), 1.0);  // default for unseen

  net::PacketPool pool;
  double now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    now += 1e-3;
    wfq.enqueue(make(pool, kSparse[i % 2], seq++, now,
                     net::ServiceClass::kPredicted),
                now);
  }
  std::uint64_t got = 0;
  while (!wfq.empty()) {
    auto p = wfq.dequeue(now);
    ASSERT_NE(p, nullptr);
    ++got;
  }
  EXPECT_EQ(got, 64u);
  EXPECT_EQ(wfq.flow_slots(), 2u);  // traffic added no slots
}

TEST(SparseFlowIds, VirtualClockSlotsScaleWithFlowsSeen) {
  sched::VirtualClockScheduler vc(
      sched::VirtualClockScheduler::Config{1000, 1e5});
  vc.add_flow(kSparse[0], 5e5);
  vc.add_flow(kSparse[1], 5e5);
  EXPECT_EQ(vc.flow_slots(), 2u);

  net::PacketPool pool;
  double now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    now += 1e-3;
    vc.enqueue(make(pool, kSparse[i % 2], seq++, now,
                    net::ServiceClass::kGuaranteed),
               now);
  }
  std::uint64_t got = 0;
  while (!vc.empty()) {
    auto p = vc.dequeue(now);
    ASSERT_NE(p, nullptr);
    ++got;
  }
  EXPECT_EQ(got, 64u);
  EXPECT_EQ(vc.flow_slots(), 2u);
}

TEST(SparseFlowIds, UnifiedGuaranteedSlotsStayCompact) {
  sched::UnifiedScheduler sched(
      sched::UnifiedScheduler::Config{1e6, 1000, 2, 1.0 / 4096.0, true});
  sched.add_guaranteed(kSparse[0], 1e5);
  sched.add_guaranteed(kSparse[1], 1e5);
  EXPECT_EQ(sched.guaranteed_slots(), 2u);
  EXPECT_DOUBLE_EQ(sched.guaranteed_rate(), 2e5);

  net::PacketPool pool;
  double now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 32; ++i) {
    now += 1e-3;
    sched.enqueue(make(pool, kSparse[i % 2], seq++, now,
                       net::ServiceClass::kGuaranteed),
                  now);
  }
  EXPECT_EQ(sched.guaranteed_packets(kSparse[0]), 16u);
  EXPECT_EQ(sched.guaranteed_packets(kSparse[1]), 16u);
  while (!sched.empty()) {
    auto p = sched.dequeue(now);
    ASSERT_NE(p, nullptr);
  }
  sched.remove_guaranteed(kSparse[0]);
  sched.remove_guaranteed(kSparse[1]);
  EXPECT_DOUBLE_EQ(sched.guaranteed_rate(), 0.0);
  // Churn through the recycled slots: a third flow reuses them, the dense
  // array never grows past the concurrent peak.
  sched.add_guaranteed(1000000, 1e5);
  EXPECT_EQ(sched.guaranteed_slots(), 2u);
}

TEST(SparseFlowIds, UnifiedPredictedSlotsStayCompact) {
  sched::UnifiedScheduler sched(
      sched::UnifiedScheduler::Config{1e6, 1000, 2, 1.0 / 4096.0, true});
  sched.set_predicted_priority(kSparse[0], 0);
  sched.set_predicted_priority(kSparse[1], 1);
  EXPECT_EQ(sched.predicted_slots(), 2u);

  net::PacketPool pool;
  double now = 1e-3;
  // Packets are stamped priority 0 at the edge; the per-hop mapping must
  // reclass flow 70000 into level 1.
  sched.enqueue(make(pool, kSparse[1], 0, now, net::ServiceClass::kPredicted,
                     0),
                now);
  EXPECT_EQ(sched.class_packets(1), 1u);
  EXPECT_EQ(sched.class_packets(0), 0u);
  auto p = sched.dequeue(now);
  ASSERT_NE(p, nullptr);

  sched.remove_predicted(kSparse[0]);
  sched.remove_predicted(kSparse[1]);
  sched.set_predicted_priority(999999, 1);
  EXPECT_EQ(sched.predicted_slots(), 2u);  // recycled, not grown
}

// The historical failure mode, as a budget assertion: registering the
// sparse pair must not balloon any dense per-flow array to ~max(FlowId).
TEST(SparseFlowIds, NoStructureScalesWithMaxId) {
  sched::WfqScheduler wfq(sched::WfqScheduler::Config{1e6, 1000, 1.0});
  sched::UnifiedScheduler uni(
      sched::UnifiedScheduler::Config{1e6, 1000, 2, 1.0 / 4096.0, true});
  for (net::FlowId id : kSparse) {
    wfq.add_flow(id, 1.0);
    uni.add_guaranteed(id, 1e4);
    uni.set_predicted_priority(id + 1, 0);
  }
  EXPECT_LE(wfq.flow_slots(), 2u);
  EXPECT_LE(uni.guaranteed_slots(), 2u);
  EXPECT_LE(uni.predicted_slots(), 2u);
}

/// Peak resident set so far, in bytes.
std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

// The network's per-flow statistics table: ids {3, 2^30} cost two records,
// iterate in ascending id whatever the creation order, and keep their
// addresses (sources hold FlowStats pointers).
TEST(SparseFlowIds, FlowStatsTableScalesWithFlowsSeen) {
  constexpr net::FlowId kHuge = net::FlowId{1} << 30;
  const std::uint64_t rss_before = peak_rss_bytes();
  net::Network net;
  net::FlowStats* huge = &net.stats(kHuge);  // the larger id first
  huge->received = 2;
  net.stats(3).received = 1;
  EXPECT_EQ(net.all_stats().size(), 2u);
  EXPECT_EQ(&net.stats(kHuge), huge);

  std::vector<net::FlowId> ids;
  for (const auto& [flow, st] : net.all_stats()) {
    ids.push_back(flow);
    EXPECT_EQ(st.received, flow == 3 ? 1u : 2u);
  }
  EXPECT_EQ(ids, (std::vector<net::FlowId>{3, kHuge}));

  // Records created after an iteration join the order too.
  net.stats(70000).received = 3;
  net.stats(1).received = 4;
  ids.clear();
  for (const auto& [flow, st] : net.all_stats()) ids.push_back(flow);
  EXPECT_EQ(ids, (std::vector<net::FlowId>{1, 3, 70000, kHuge}));
  EXPECT_EQ(&net.stats(kHuge), huge);

  // Anything indexed by the raw id would need 2^30 entries: gigabytes.
  EXPECT_LT(peak_rss_bytes() - rss_before, std::uint64_t{64} << 20)
      << "a flow-stats structure grew with the largest FlowId";
}

}  // namespace
}  // namespace ispn
