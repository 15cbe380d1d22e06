#include "net/tracer.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace ispn::net {

const char* to_label(PacketTracer::Event event) {
  switch (event) {
    case PacketTracer::Event::kTransmit: return "tx";
    case PacketTracer::Event::kDrop: return "drop";
    case PacketTracer::Event::kDeliver: return "deliver";
  }
  return "?";
}

class PacketTracer::DeliverySink final : public FlowSink {
 public:
  DeliverySink(PacketTracer& tracer, FlowSink* next)
      : tracer_(tracer), next_(next) {}

  /// Sharded delivery sinks route into their domain's buffer.
  DeliverySink(PacketTracer& tracer, FlowSink* next, std::size_t domain)
      : tracer_(tracer), next_(next), domain_(domain), sharded_(true) {}

  void on_packet(PacketPtr p, sim::Time now) override {
    const Record r{now,      Event::kDeliver,   p->flow, p->seq,
                   p->dst,   p->queueing_delay, p->jitter_offset};
    if (sharded_) {
      tracer_.record_domain(domain_, r);
    } else {
      tracer_.record(r);
    }
    if (next_ != nullptr) next_->on_packet(std::move(p), now);
  }

 private:
  PacketTracer& tracer_;
  FlowSink* next_;
  std::size_t domain_ = 0;
  bool sharded_ = false;
};

void PacketTracer::record(const Record& r) {
  if (records_.size() >= max_records_) {
    truncated_.store(true, std::memory_order_relaxed);
    return;
  }
  records_.push_back(r);
}

void PacketTracer::record_domain(std::size_t domain, const Record& r) {
  // The cap is a global memory bound shared by all domains; which records
  // survive a truncated sharded run may vary, but the golden suites all
  // assert !truncated(), so the hashed streams are never in that regime.
  if (total_.fetch_add(1, std::memory_order_relaxed) >= max_records_) {
    truncated_.store(true, std::memory_order_relaxed);
    return;
  }
  domain_records_[domain].push_back(r);
}

void PacketTracer::shard(std::size_t num_domains) {
  sharded_ = true;
  if (domain_records_.size() < num_domains) {
    domain_records_.resize(num_domains);
  }
}

void PacketTracer::attach(Network& net) {
  if (net.sharded()) shard(net.num_domains());
  for (const auto& [node, neighbors] : net.adjacency()) {
    for (const NodeId neighbor : neighbors) {
      Port* port = net.port(node, neighbor);
      if (port == nullptr || port->rate() <= 0) continue;
      const NodeId owner = node;
      if (sharded_) {
        const auto domain = static_cast<std::size_t>(net.domain_of(owner));
        port->add_tx_hook([this, owner, domain](const Packet& p,
                                                sim::Time now) {
          record_domain(domain, {now, Event::kTransmit, p.flow, p.seq, owner,
                                 p.queueing_delay, p.jitter_offset});
        });
        port->add_drop_hook([this, owner, domain](const Packet& p,
                                                  sim::Time now) {
          record_domain(domain, {now, Event::kDrop, p.flow, p.seq, owner,
                                 p.queueing_delay, p.jitter_offset});
        });
      } else {
        port->add_tx_hook([this, owner](const Packet& p, sim::Time now) {
          record({now, Event::kTransmit, p.flow, p.seq, owner,
                  p.queueing_delay, p.jitter_offset});
        });
        port->add_drop_hook([this, owner](const Packet& p, sim::Time now) {
          record({now, Event::kDrop, p.flow, p.seq, owner, p.queueing_delay,
                  p.jitter_offset});
        });
      }
    }
  }
}

FlowSink* PacketTracer::wrap_sink(FlowSink* next) {
  wrappers_.push_back(std::make_unique<DeliverySink>(*this, next));
  return wrappers_.back().get();
}

FlowSink* PacketTracer::wrap_sink(FlowSink* next, std::size_t domain) {
  if (!sharded_) return wrap_sink(next);
  assert(domain < domain_records_.size());
  wrappers_.push_back(std::make_unique<DeliverySink>(*this, next, domain));
  return wrappers_.back().get();
}

void PacketTracer::finalize() {
  if (!sharded_) return;
  std::size_t n = records_.size();
  for (const auto& buf : domain_records_) n += buf.size();
  records_.reserve(n);
  // Concatenate in domain order, then stable-sort by time: equal-time
  // records keep (domain index, within-domain order) — both worker-count
  // invariant, so the merged stream is too.
  for (auto& buf : domain_records_) {
    records_.insert(records_.end(), buf.begin(), buf.end());
    buf.clear();
  }
  std::stable_sort(
      records_.begin(), records_.end(),
      [](const Record& a, const Record& b) { return a.time < b.time; });
}

std::uint64_t PacketTracer::count(Event event) const {
  std::uint64_t n = 0;
  for (const auto& r : records_) {
    if (r.event == event) ++n;
  }
  return n;
}

void PacketTracer::to_csv(std::ostream& out) const {
  out << "time,event,flow,seq,node,queueing_delay,jitter_offset\n";
  for (const auto& r : records_) {
    out << r.time << ',' << to_label(r.event) << ',' << r.flow << ','
        << r.seq << ',' << r.node << ',' << r.queueing_delay << ','
        << r.jitter_offset << '\n';
  }
}

void PacketTracer::clear() {
  records_.clear();
  for (auto& buf : domain_records_) buf.clear();
  total_.store(0, std::memory_order_relaxed);
  truncated_.store(false, std::memory_order_relaxed);
}

}  // namespace ispn::net
