#include "core/admission.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ispn::core {

void AdmissionController::register_link(LinkId link, sim::Rate rate,
                                        std::vector<sim::Duration> targets,
                                        LinkMeasurement* measurement) {
  assert(rate > 0);
  assert(std::is_sorted(targets.begin(), targets.end()));
  auto [it, inserted] = links_.try_emplace(link);
  assert(inserted && "link already registered");
  it->second.rate = rate;
  it->second.class_targets = std::move(targets);
  it->second.measurement = measurement;
}

int cheapest_class(const std::vector<sim::Duration>& targets,
                   sim::Duration per_hop) {
  for (int j = static_cast<int>(targets.size()) - 1; j >= 0; --j) {
    if (targets[static_cast<std::size_t>(j)] <= per_hop) return j;
  }
  return -1;
}

double AdmissionController::utilization(LinkState& link, sim::Time now) const {
  if (config_.mode == Mode::kMeasurementBased && link.measurement != nullptr) {
    // The paper: use measurement for existing traffic, but never less than
    // what freshly committed (not yet measurable) flows will add.
    return std::max(link.measurement->measured_utilization(now),
                    0.0) ;
  }
  return (link.guaranteed_rate + link.predicted_rate) / link.rate;
}

sim::Duration AdmissionController::class_delay(LinkState& link, int klass,
                                               sim::Time now) const {
  if (config_.mode == Mode::kMeasurementBased && link.measurement != nullptr) {
    return link.measurement->measured_delay(klass, now);
  }
  return 0.0;  // parameter-based: no delay information
}

bool AdmissionController::check(LinkState& link, sim::Rate r, sim::Bits b,
                                int level, sim::Time now,
                                std::string* why) const {
  const double mu = link.rate;
  const double nu_bits = utilization(link, now) * mu;

  // Criterion 1: keep the datagram quota.
  if (r + nu_bits >= (1.0 - config_.datagram_quota) * mu) {
    if (why != nullptr) {
      std::ostringstream out;
      out << "datagram quota: r + nu = " << (r + nu_bits) / 1000.0
          << " kb/s >= " << (1.0 - config_.datagram_quota) * mu / 1000.0
          << " kb/s";
      *why = out.str();
    }
    return false;
  }

  // Criterion 2: b < (D_j - d_j)(mu - nu - r) for each class j at or below
  // this priority (level < 0 encodes "guaranteed": above all classes).
  const double headroom = mu - nu_bits - r;
  const int first = level < 0 ? 0 : level;
  for (int j = first; j < static_cast<int>(link.class_targets.size()); ++j) {
    const sim::Duration slack =
        link.class_targets[static_cast<std::size_t>(j)] -
        class_delay(link, j, now);
    if (b >= slack * headroom) {
      if (why != nullptr) {
        std::ostringstream out;
        out << "class " << j << " delay protection: b = " << b / 1000.0
            << " kb >= slack " << slack * 1000.0 << " ms x headroom "
            << headroom / 1000.0 << " kb/s";
        *why = out.str();
      }
      return false;
    }
  }
  return true;
}

ServiceCommitment AdmissionController::request(const FlowSpec& spec,
                                               const std::vector<LinkId>& path,
                                               sim::Time now) {
  ServiceCommitment commitment;
  assert(spec.valid());

  if (spec.service == net::ServiceClass::kDatagram) {
    // Datagram traffic is never refused; it gets the leftover quota.
    commitment.admitted = true;
    return commitment;
  }

  if (spec.service == net::ServiceClass::kGuaranteed) {
    const sim::Rate r = spec.guaranteed->clock_rate;
    for (std::size_t hop = 0; hop < path.size(); ++hop) {
      LinkState& link = links_.at(path[hop]);
      // WFQ clock rates must never oversubscribe the real-time share.
      if (link.guaranteed_rate + r >=
          (1.0 - config_.datagram_quota) * link.rate) {
        commitment.reason = "guaranteed clock rates would oversubscribe link";
        commitment.rejected_hop = static_cast<int>(hop);
        return commitment;
      }
      std::string why;
      if (!check(link, r, /*b=*/0.0, /*level=*/-1, now, &why)) {
        commitment.reason = why;
        commitment.rejected_hop = static_cast<int>(hop);
        return commitment;
      }
    }
    for (const LinkId& id : path) links_.at(id).guaranteed_rate += r;
    assert(!committed_.contains(spec.flow) && "flow already holds a commitment");
    committed_[spec.flow] = Commitment{spec.service, r, path};
    commitment.admitted = true;
    // The a-priori bound is b(r)/r-based and computed by the caller, which
    // knows the client's bucket; the network only commits the rate.
    return commitment;
  }

  // Predicted service: choose, on each link, the cheapest (lowest-priority)
  // class whose per-hop target keeps the summed path target within the
  // client's request, then run both criteria at that level.
  const auto& predicted = *spec.predicted;
  const double hops = static_cast<double>(path.size());
  const sim::Duration per_hop_target = predicted.target_delay / hops;

  std::vector<int> levels;
  levels.reserve(path.size());
  sim::Duration advertised = 0;
  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    const LinkId& id = path[hop];
    LinkState& link = links_.at(id);
    const int chosen = cheapest_class(link.class_targets, per_hop_target);
    if (chosen < 0) {
      std::ostringstream out;
      out << "no class tight enough on link (" << id.first << "->"
          << id.second << "): need " << per_hop_target * 1000.0
          << " ms per hop";
      commitment.reason = out.str();
      commitment.rejected_hop = static_cast<int>(hop);
      return commitment;
    }
    std::string why;
    if (!check(link, predicted.bucket.rate, predicted.bucket.depth, chosen,
               now, &why)) {
      commitment.reason = why;
      commitment.rejected_hop = static_cast<int>(hop);
      return commitment;
    }
    levels.push_back(chosen);
    advertised += link.class_targets[static_cast<std::size_t>(chosen)];
  }

  for (const LinkId& id : path) {
    links_.at(id).predicted_rate += predicted.bucket.rate;
  }
  assert(!committed_.contains(spec.flow) && "flow already holds a commitment");
  committed_[spec.flow] = Commitment{spec.service, predicted.bucket.rate, path};
  commitment.admitted = true;
  commitment.advertised_bound = advertised;
  commitment.priority_per_hop = std::move(levels);
  return commitment;
}

bool AdmissionController::release(const FlowSpec& spec) {
  if (spec.service == net::ServiceClass::kDatagram) return false;
  const auto it = committed_.find(spec.flow);
  if (it == committed_.end()) return false;  // already released, or never held
  const Commitment& held = it->second;
  for (const LinkId& id : held.path) {
    LinkState& link = links_.at(id);
    if (held.service == net::ServiceClass::kGuaranteed) {
      link.guaranteed_rate -= held.rate;
      assert(link.guaranteed_rate > -1e-6);
      // Clamp float residue so drift cannot accumulate over long churn.
      if (link.guaranteed_rate < 0) link.guaranteed_rate = 0;
    } else {
      link.predicted_rate -= held.rate;
      assert(link.predicted_rate > -1e-6);
      if (link.predicted_rate < 0) link.predicted_rate = 0;
    }
  }
  committed_.erase(it);
  return true;
}

void AdmissionController::set_link_rate(LinkId link, sim::Rate rate) {
  assert(rate > 0);
  links_.at(link).rate = rate;
}

sim::Rate AdmissionController::link_rate(LinkId link) const {
  return links_.at(link).rate;
}

sim::Rate AdmissionController::guaranteed_rate(LinkId link) const {
  return links_.at(link).guaranteed_rate;
}

sim::Rate AdmissionController::predicted_rate(LinkId link) const {
  return links_.at(link).predicted_rate;
}

}  // namespace ispn::core
