// Packet-level tracing.
//
// Subscribes to every finite-rate port of a Network and records transmit
// and drop events (and, through wrap_sink(), deliveries) with timestamps
// and header fields.  Intended for debugging scheduler behaviour and for
// exporting per-packet CSV series (delay scatter plots, burst anatomy).
// Bounded: recording stops at `max_records` so a runaway run cannot eat
// the heap.
//
// Sharded runs: each domain thread appends to its own buffer (no lock on
// the hot path), and finalize() merges the buffers into one stream
// ordered by (time, domain index, within-domain order).  Both the
// per-domain buffers and the merge key are functions of the topology and
// the deterministic domain schedules — never of the worker count — so
// the merged trace is bit-identical for any shard count, which is
// exactly what the golden suite hashes.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "net/network.h"

namespace ispn::net {

class PacketTracer {
 public:
  enum class Event : std::uint8_t {
    kTransmit,  ///< packet finished transmission on a port
    kDrop,      ///< packet dropped at a port (buffer policy)
    kDeliver,   ///< packet reached its destination sink
  };

  struct Record {
    sim::Time time = 0;
    Event event = Event::kTransmit;
    FlowId flow = kNoFlow;
    std::uint64_t seq = 0;
    NodeId node = kNoNode;        ///< port owner / delivering host
    double queueing_delay = 0;    ///< accumulated so far (seconds)
    double jitter_offset = 0;     ///< FIFO+ header field
  };

  explicit PacketTracer(std::size_t max_records = 1u << 20)
      : max_records_(max_records) {}

  /// Hooks every existing finite-rate port of `net`.  Call after topology
  /// construction and before the run.  A sharded network switches the
  /// tracer into per-domain buffering; call finalize() before reading.
  void attach(Network& net);

  /// Returns a recording sink that forwards to `next` (may be null);
  /// register it (or pass it to Network::attach_stats_sink) to capture
  /// delivery events.  The tracer owns the wrapper.
  [[nodiscard]] FlowSink* wrap_sink(FlowSink* next = nullptr);

  /// Sharded variant: delivery records go to `domain`'s buffer (pass the
  /// destination host's domain).  On an unsharded tracer the domain is
  /// ignored and this is wrap_sink(next).
  [[nodiscard]] FlowSink* wrap_sink(FlowSink* next, std::size_t domain);

  /// Pre-sizes the per-domain buffers so sinks can be wrapped before
  /// attach() runs (the scenario runner opens batch-mode flows at prepare
  /// time).  attach() on a sharded network calls this implicitly.
  void shard(std::size_t num_domains);

  /// Merges the per-domain buffers into the unified record stream (no-op
  /// for classic single-threaded tracing).  Call once, after the run.
  void finalize();

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] bool truncated() const {
    return truncated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count(Event event) const;

  /// Writes "time,event,flow,seq,node,queueing_delay,jitter_offset" rows.
  void to_csv(std::ostream& out) const;

  void clear();

 private:
  class DeliverySink;

  void record(const Record& r);
  void record_domain(std::size_t domain, const Record& r);

  std::size_t max_records_;
  std::vector<Record> records_;
  std::atomic<bool> truncated_{false};
  std::vector<std::unique_ptr<FlowSink>> wrappers_;

  bool sharded_ = false;
  std::vector<std::vector<Record>> domain_records_;
  std::atomic<std::size_t> total_{0};  ///< records accepted across domains
};

/// Short label for CSV output ("tx", "drop", "deliver").
[[nodiscard]] const char* to_label(PacketTracer::Event event);

}  // namespace ispn::net
