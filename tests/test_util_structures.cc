// Unit tests for the engine's hot-path containers: Ring, DaryHeap,
// IndexedDaryHeap, and the InlineAction SBO callable.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "sim/inline_action.h"
#include "util/calendar_queue.h"
#include "util/chunked_store.h"
#include "util/dary_heap.h"
#include "util/indexed_heap.h"
#include "util/ring.h"

namespace ispn {
namespace {

// ---------------------------------------------------------------- Ring

TEST(Ring, FifoOrderAcrossGrowthAndWraparound) {
  util::Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so head wraps the buffer many times while
  // the ring also grows.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) r.push_back(next_in++);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(r.pop_front(), next_out++);
  }
  EXPECT_EQ(r.size(), 1000u);
  while (!r.empty()) EXPECT_EQ(r.pop_front(), next_out++);
}

TEST(Ring, PopBackAndIndexing) {
  util::Ring<int> r;
  for (int i = 0; i < 10; ++i) r.push_back(i);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 9);
  EXPECT_EQ(r[3], 3);
  EXPECT_EQ(r.pop_back(), 9);
  EXPECT_EQ(r.back(), 8);
  EXPECT_EQ(r.size(), 9u);
}

TEST(Ring, EraseAtShiftsTheShorterSide) {
  for (std::size_t victim : {1u, 4u, 7u}) {
    util::Ring<int> r;
    for (int i = 0; i < 9; ++i) r.push_back(i);
    EXPECT_EQ(r.erase_at(victim), static_cast<int>(victim));
    std::vector<int> rest;
    while (!r.empty()) rest.push_back(r.pop_front());
    std::vector<int> expect;
    for (int i = 0; i < 9; ++i) {
      if (static_cast<std::size_t>(i) != victim) expect.push_back(i);
    }
    EXPECT_EQ(rest, expect);
  }
}

TEST(Ring, HoldsMoveOnlyTypes) {
  util::Ring<std::unique_ptr<int>> r;
  for (int i = 0; i < 20; ++i) r.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(*r.pop_front(), i);
}

// ------------------------------------------------------------- DaryHeap

TEST(DaryHeap, PopsInSortedOrder) {
  util::DaryHeap<int> h;
  std::mt19937 rng(7);
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) values.push_back(static_cast<int>(rng()));
  for (int v : values) h.push(v);
  std::sort(values.begin(), values.end());
  for (int v : values) EXPECT_EQ(h.pop(), v);
  EXPECT_TRUE(h.empty());
}

TEST(DaryHeap, RemoveAtKeepsHeapValid) {
  util::DaryHeap<int> h;
  std::mt19937 rng(11);
  std::vector<int> values;
  for (int i = 0; i < 200; ++i) values.push_back(static_cast<int>(rng() % 1000));
  for (int v : values) h.push(v);
  // Remove 50 arbitrary raw positions, tracking the multiset.
  std::vector<int> removed;
  for (int i = 0; i < 50; ++i) {
    const std::size_t at = rng() % h.size();
    removed.push_back(h.remove_at(at));
  }
  std::vector<int> expect = values;
  for (int v : removed) {
    expect.erase(std::find(expect.begin(), expect.end(), v));
  }
  std::sort(expect.begin(), expect.end());
  for (int v : expect) EXPECT_EQ(h.pop(), v);
}

// ------------------------------------------------------ IndexedDaryHeap

TEST(IndexedHeap, UpsertInsertsAndReKeys) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  h.upsert(3, 5.0);
  h.upsert(1, 2.0);
  h.upsert(2, 8.0);
  EXPECT_EQ(h.top().id, 1u);
  h.upsert(1, 9.0);  // re-key upward
  EXPECT_EQ(h.top().id, 3u);
  h.upsert(2, 1.0);  // re-key downward
  EXPECT_EQ(h.top().id, 2u);
  EXPECT_EQ(h.size(), 3u);  // still one entry per id
}

TEST(IndexedHeap, TiesBreakByIdAscending) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  h.upsert(5, 1.0);
  h.upsert(2, 1.0);
  h.upsert(9, 1.0);
  EXPECT_EQ(h.pop().id, 2u);
  EXPECT_EQ(h.pop().id, 5u);
  EXPECT_EQ(h.pop().id, 9u);
}

TEST(IndexedHeap, EraseRemovesAndAllowsReinsert) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  for (std::uint32_t id = 0; id < 20; ++id) h.upsert(id, 100.0 - id);
  EXPECT_TRUE(h.erase(7));
  EXPECT_FALSE(h.erase(7));
  EXPECT_FALSE(h.contains(7));
  EXPECT_EQ(h.size(), 19u);
  h.upsert(7, 0.5);
  EXPECT_EQ(h.top().id, 7u);
}

TEST(IndexedHeap, RandomisedAgainstReference) {
  util::IndexedDaryHeap<double, std::less<double>> h;
  std::vector<double> key(64, -1.0);  // -1 = absent
  std::mt19937 rng(23);
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng() % 4;
    const std::uint32_t id = rng() % 64;
    if (op == 0 || op == 1) {
      const double k = static_cast<double>(rng() % 10000);
      h.upsert(id, k);
      key[id] = k;
    } else if (op == 2) {
      EXPECT_EQ(h.erase(id), key[id] >= 0);
      key[id] = -1.0;
    } else if (!h.empty()) {
      const auto e = h.pop();
      // Must be the minimum (key, id) among present ids.
      double best = -1.0;
      std::uint32_t best_id = 0;
      for (std::uint32_t i = 0; i < 64; ++i) {
        if (key[i] < 0) continue;
        if (best < 0 || key[i] < best || (key[i] == best && i < best_id)) {
          best = key[i];
          best_id = i;
        }
      }
      ASSERT_GE(best, 0.0);
      EXPECT_EQ(e.id, best_id);
      EXPECT_DOUBLE_EQ(e.key, best);
      key[best_id] = -1.0;
    }
  }
}

// ------------------------------------------------------- CalendarQueue
//
// The calendar must pop in exactly the heap's total order — (KeyLess, id)
// — across bucketed, overflow, solo and rebuilt states; the differential
// scheduler harness (test_order_backend_diff.cc) covers the same contract
// end-to-end, these tests pin the structure directly.

using Calendar = util::IndexedCalendarQueue<double, std::less<double>>;

TEST(CalendarQueue, PopsInKeyThenIdOrder) {
  Calendar c;
  c.upsert(5, 1.0);
  c.upsert(2, 1.0);  // tie: id order
  c.upsert(9, 0.25);
  c.upsert(7, 300.0);  // far ahead: overflow at default width
  EXPECT_EQ(c.pop().id, 9u);
  EXPECT_EQ(c.pop().id, 2u);
  EXPECT_EQ(c.pop().id, 5u);
  EXPECT_EQ(c.pop().id, 7u);
  EXPECT_TRUE(c.empty());
}

TEST(CalendarQueue, SoloEntryReKeysAndPops) {
  Calendar c;
  c.upsert(3, 10.0);
  EXPECT_EQ(c.size(), 1u);
  c.upsert(3, 20.0);  // lone-entry re-key fast path
  EXPECT_DOUBLE_EQ(c.top().key, 20.0);
  const auto e = c.pop();
  EXPECT_EQ(e.id, 3u);
  EXPECT_DOUBLE_EQ(e.key, 20.0);
  EXPECT_TRUE(c.empty());
  c.upsert(3, 5.0);  // reusable afterwards
  EXPECT_EQ(c.pop().id, 3u);
}

TEST(CalendarQueue, KeysSpanningManyYearsDrainInOrder) {
  Calendar c;
  // Default width 1/16, 256 buckets -> one year spans 16.0; these keys
  // force repeated lazy overflow re-bucketing.
  for (std::uint32_t id = 0; id < 40; ++id) c.upsert(id, 100.0 * id);
  for (std::uint32_t id = 0; id < 40; ++id) {
    EXPECT_EQ(c.pop().id, id);
  }
  EXPECT_GT(c.stats().year_advances, 0u);
}

TEST(CalendarQueue, KeyBehindTheWindowRebases) {
  Calendar c;
  c.upsert(1, 1000.0);
  c.upsert(2, 1001.0);
  (void)c.pop();        // scan settles around day(1000)
  c.upsert(3, 2.0);     // regressing key: forces a window rebase
  EXPECT_EQ(c.pop().id, 3u);
  EXPECT_EQ(c.pop().id, 2u);
  EXPECT_TRUE(c.empty());
}

TEST(CalendarQueue, RandomisedAgainstIndexedHeap) {
  // Same op stream into both structures: pops and tops must agree exactly,
  // including ties.  Keys are drawn from a coarse grid so identical keys
  // (the degenerate WFQ pattern) occur constantly.
  Calendar c;
  util::IndexedDaryHeap<double, std::less<double>> h;
  std::mt19937 rng(71);
  for (int step = 0; step < 50000; ++step) {
    const auto op = rng() % 5;
    const std::uint32_t id = rng() % 48;
    if (op <= 2) {
      const double k = static_cast<double>(rng() % 512) * 0.125;
      c.upsert(id, k);
      h.upsert(id, k);
    } else if (op == 3) {
      EXPECT_EQ(c.erase(id), h.erase(id));
    } else if (!h.empty()) {
      const auto ce = c.pop();
      const auto he = h.pop();
      ASSERT_EQ(ce.id, he.id);
      ASSERT_EQ(ce.key, he.key);
    }
    ASSERT_EQ(c.size(), h.size());
    if (!h.empty()) {
      ASSERT_EQ(c.top().key, h.top().key);
    }
  }
}

TEST(CalendarQueue, TunerConvergesOnSpreadKeys) {
  // Keys advance with distinct sub-width spacing: the tuner should narrow
  // until scans are short, then stop rebuilding.
  Calendar c(/*width_hint=*/1.0);
  double base = 0;
  for (std::uint32_t id = 0; id < 64; ++id) c.upsert(id, base + id * 0.01);
  for (int cycle = 0; cycle < 200000; ++cycle) {
    const auto e = c.pop();
    base += 0.01;
    c.upsert(e.id, base + 0.64);
  }
  const auto& st = c.stats();
  EXPECT_GT(st.rebuilds, 0u);   // it did adapt...
  EXPECT_LT(st.rebuilds, 64u);  // ...and settled instead of thrashing
  EXPECT_LT(static_cast<double>(st.scanned_slots) / st.finds, 8.0);
}

TEST(CalendarQueue, TunerDoesNotCollapseOnDegenerateTies) {
  // Dozens of entries share bit-identical keys (saturated equal-weight WFQ
  // tags are quantised to a grid).  Narrowing can never split such a
  // cluster; the tuner must notice and leave the width alone.
  Calendar c;
  double grid = 0;
  for (std::uint32_t id = 0; id < 64; ++id) c.upsert(id, 0.1);
  for (int cycle = 0; cycle < 100000; ++cycle) {
    const auto e = c.pop();
    if (cycle % 64 == 63) grid += 0.1;
    c.upsert(e.id, grid + 0.2);
  }
  EXPECT_EQ(c.stats().rebuilds, 0u);
  EXPECT_GT(c.bucket_width(), 1e-3);  // never ran away toward kMinExp
}

TEST(OrderIndex, AutoMigratesAcrossThresholdsKeepingOrder) {
  // Grow past kAutoUp (heap -> calendar), then drain below kAutoDown
  // (calendar -> heap); every pop must still match a pure-heap reference.
  util::OrderIndex<double, std::less<double>> auto_idx(
      util::OrderBackend::kAuto);
  util::OrderIndex<double, std::less<double>> heap_idx(
      util::OrderBackend::kHeap);
  std::mt19937 rng(5);
  std::uint32_t live = 0;
  EXPECT_FALSE(auto_idx.on_calendar());
  for (int step = 0; step < 30000; ++step) {
    // Saw-tooth population: repeatedly crosses both hysteresis edges.
    const bool grow = (step / 300) % 2 == 0;
    if (grow || live == 0) {
      const std::uint32_t id = rng() % 256;
      const double k = static_cast<double>(rng() % 1000) * 0.05;
      auto_idx.upsert(id, k);
      heap_idx.upsert(id, k);
    } else {
      const auto a = auto_idx.pop();
      const auto h = heap_idx.pop();
      ASSERT_EQ(a.id, h.id);
      ASSERT_EQ(a.key, h.key);
    }
    live = static_cast<std::uint32_t>(heap_idx.size());
    ASSERT_EQ(auto_idx.size(), heap_idx.size());
  }
}

// --------------------------------------------------------- InlineAction

TEST(InlineAction, InvokesSmallInlineCallable) {
  int hits = 0;
  sim::InlineAction a([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, MovePreservesCallableAndEmptiesSource) {
  int hits = 0;
  sim::InlineAction a([&hits] { ++hits; });
  sim::InlineAction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, LargeCaptureTakesBoxedPathAndWorks) {
  std::array<double, 32> big{};
  big[31] = 2.25;
  double got = 0;
  static_assert(sizeof(big) > sim::InlineAction::kCapacity);
  sim::InlineAction a([big, &got] { got = big[31]; });
  a();
  EXPECT_DOUBLE_EQ(got, 2.25);
}

TEST(InlineAction, ResetDestroysCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim::InlineAction a([token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  a.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineAction, MoveOnlyCapturesSupported) {
  auto owned = std::make_unique<int>(5);
  int got = 0;
  sim::InlineAction a([owned = std::move(owned), &got] { got = *owned; });
  sim::InlineAction b = std::move(a);
  b();
  EXPECT_EQ(got, 5);
}

TEST(InlineAction, MoveAssignmentReleasesPreviousCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim::InlineAction a([token = std::move(token)] {});
  a = sim::InlineAction([] {});
  EXPECT_TRUE(watch.expired());
  a();  // still callable
}

/// Counts live instances, so the store's destructor can be checked.
struct Tracked {
  explicit Tracked(int v, int* live) : value(v), live(live) { ++*live; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
  int value;
  int* live;
};

TEST(ChunkedStore, AddressesStayPutAcrossChunks) {
  int live = 0;
  {
    util::ChunkedStore<Tracked, 8> store;
    std::vector<const Tracked*> addr;
    for (int i = 0; i < 100; ++i) {  // 13 chunks
      addr.push_back(&store.emplace_back(i, &live));
    }
    EXPECT_EQ(store.size(), 100u);
    EXPECT_EQ(live, 100);
    int expect = 0;
    for (Tracked& t : store) {  // insertion order
      EXPECT_EQ(t.value, expect);
      EXPECT_EQ(&t, addr[static_cast<std::size_t>(expect)]);
      ++expect;
    }
    EXPECT_EQ(expect, 100);
    EXPECT_EQ(&store[37], addr[37]);
  }
  EXPECT_EQ(live, 0);  // every element destroyed exactly once
}

}  // namespace
}  // namespace ispn
