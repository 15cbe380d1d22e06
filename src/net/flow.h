// Per-flow bookkeeping: identity and end-to-end statistics.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/units.h"
#include "stats/percentile.h"
#include "util/chunked_store.h"
#include "util/slot_map.h"

namespace ispn::net {

/// A drop-in uint64 counter that tolerates increments from several domain
/// threads in a sharded run.  Increments are relaxed atomics — counts are
/// sums, no ordering needed; reads happen at barriers or after the run,
/// where the engine's mutex handoff already provides the happens-before.
/// Copyable (snapshot semantics) so FlowStats stays a value type.
class Counter {
 public:
  Counter() = default;
  Counter(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  Counter(const Counter& o) : v_(o.value()) {}
  Counter& operator=(const Counter& o) {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  Counter& operator=(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const { return value(); }  // NOLINT
  Counter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator+=(std::uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator-=(std::uint64_t d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// End-to-end statistics of one flow, filled by the network's stats sink
/// and the source.  Delays are stored in seconds; helpers convert to the
/// paper's unit (packet transmission times).
struct FlowStats {
  stats::SampleSeries queueing_delay;  ///< summed waiting time across hops (s)
  stats::SampleSeries e2e_delay;       ///< delivery minus creation time (s)

  /// Packets produced by the source process.  A Counter (not plain) because
  /// responsive flows produce in BOTH directions: data at the source, ACKs
  /// at the destination's transport sink, which lives in the dst domain in
  /// a sharded run.
  Counter generated;
  std::uint64_t source_drops = 0;  ///< dropped by the edge token-bucket filter
  /// Entered the network; Counter for the same two-domain reason as
  /// `generated` (ACK injection happens at the destination host).
  Counter injected;
  /// Dropped at switch buffers.  Drops can fire on any domain thread in a
  /// sharded run (the port's drop hook runs where the port runs), hence a
  /// Counter; the other fields are written only by the flow's source or
  /// sink, each of which lives in exactly one domain.
  Counter net_drops;
  /// Lost to topology churn rather than congestion: in flight or queued on
  /// a link when it failed, expelled from a rerouted guaranteed flow's WFQ
  /// queue, or arriving at a switch with no route (partition).  Kept apart
  /// from net_drops so the conservation ledger attributes every loss.
  Counter failed_link_drops;
  /// Casualties of a switch crash: queued or in flight on a link whose
  /// endpoint node went down (the whole incident star flushes at once).
  /// Kept apart from failed_link_drops so the ledger attributes a crash
  /// to the node, not to eight coincidental "link" failures.
  Counter node_failure_drops;
  /// Dropped by injected transient faults (per-link Bernoulli loss
  /// episodes): the packet consumed the wire — it was transmitted — but
  /// never arrived.  A fault-plane bucket, not congestion or topology.
  Counter fault_drops;
  std::uint64_t received = 0;      ///< delivered to the sink
  sim::Bits bits_received = 0;

  /// Mean queueing delay in packet transmission times (1 ms at 1 Mbit/s).
  [[nodiscard]] double mean_qdelay_pkt() const {
    return queueing_delay.mean() / sim::paper::kPacketTime;
  }
  /// 99.9th-percentile queueing delay in packet times.
  [[nodiscard]] double p999_qdelay_pkt() const {
    return queueing_delay.p999() / sim::paper::kPacketTime;
  }
  /// Maximum queueing delay in packet times.
  [[nodiscard]] double max_qdelay_pkt() const {
    return queueing_delay.max() / sim::paper::kPacketTime;
  }
  /// Fraction of injected packets lost inside the network.
  [[nodiscard]] double net_loss_rate() const {
    return injected == 0 ? 0.0
                         : static_cast<double>(net_drops) /
                               static_cast<double>(injected);
  }
  /// Fraction of generated packets dropped by the edge filter.
  [[nodiscard]] double source_drop_rate() const {
    return generated == 0 ? 0.0
                          : static_cast<double>(source_drops) /
                                static_cast<double>(generated);
  }
};

/// Every flow's FlowStats, keyed by FlowId.  A SlotMap gives each flow a
/// dense slot on first sight and the records sit in fixed-size chunks in
/// slot order, so a record never moves (sources and sinks hold pointers to
/// theirs) and nothing is sized by the largest FlowId.  Records are never
/// removed.  Iteration visits flows in ascending FlowId through an index
/// of slots that creation appends to; iteration sorts it in place, and
/// only when a record arrived out of id order since the last iteration,
/// so iterating never allocates.
///
/// Threading: find() is read-only, so domain threads may call it while no
/// record is being created; creation (operator[]) and iteration belong to
/// the control thread.
class FlowStatsTable {
 public:
  /// The record of `flow`, created (zeroed) on first use.
  FlowStats& operator[](FlowId flow) {
    const std::uint32_t slot = slots_.acquire(flow);
    if (slot == entries_.size()) {
      entries_.emplace_back().flow = flow;
      if (!order_.empty() && entries_[order_.back()].flow > flow) {
        sorted_ = false;
      }
      order_.push_back(slot);
    }
    return entries_[slot].stats;
  }

  /// The record of `flow`, or nullptr when it was never created.
  [[nodiscard]] FlowStats* find(FlowId flow) {
    const std::uint32_t slot = slots_.find(flow);
    return slot == util::SlotMap::kNoSlot ? nullptr : &entries_[slot].stats;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Ascending-FlowId iterator; dereferences to (flow, stats).
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<FlowId, const FlowStats&>;
    using difference_type = std::ptrdiff_t;

    const_iterator(const FlowStatsTable* table, std::size_t i)
        : table_(table), i_(i) {}
    value_type operator*() const {
      const Entry& e = table_->entries_[table_->order_[i_]];
      return {e.flow, e.stats};
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const FlowStatsTable* table_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const {
    sort_order();
    return {this, 0};
  }
  [[nodiscard]] const_iterator end() const { return {this, order_.size()}; }

 private:
  struct Entry {
    FlowId flow = kNoFlow;
    FlowStats stats;
  };

  void sort_order() const {
    if (sorted_) return;
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return entries_[a].flow < entries_[b].flow;
              });
    sorted_ = true;
  }

  util::SlotMap slots_;
  util::ChunkedStore<Entry> entries_;         // slot order
  mutable std::vector<std::uint32_t> order_;  // every slot; see sorted_
  mutable bool sorted_ = true;                // order_ is by ascending id
};

}  // namespace ispn::net
