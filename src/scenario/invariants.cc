#include "scenario/invariants.h"

#include <cmath>
#include <sstream>

namespace ispn::scenario {

namespace {

/// Relative tolerance for floating reservation sums: admission and the
/// schedulers accumulate the same rates in different orders, so they may
/// disagree by rounding residue but never by a real reservation.
constexpr double kRateTolerance = 1e-6;

}  // namespace

std::size_t InvariantMonitor::audit(sim::Time now, const Ledger& ledger) {
  const std::size_t before = violations_.size();
  check_conservation(now, ledger);
  check_admission(now);
  check_schedulers(now);
  ++audits_;
  return violations_.size() - before;
}

void InvariantMonitor::check_conservation(sim::Time now,
                                          const Ledger& ledger) {
  if (ledger.generated != ledger.source_drops + ledger.injected) {
    std::ostringstream out;
    out << "generated " << ledger.generated << " != source_drops "
        << ledger.source_drops << " + injected " << ledger.injected;
    violate(now, "conservation", out.str());
  }
  const std::uint64_t accounted = ledger.accounted();
  if (ledger.injected != accounted) {
    std::ostringstream out;
    out << "injected " << ledger.injected << " != delivered "
        << ledger.delivered << " + net_drops " << ledger.net_drops
        << " + failed_link " << ledger.failed_link_drops << " + node_failure "
        << ledger.node_failure_drops << " + fault " << ledger.fault_drops
        << " + queued " << ledger.queued << " + in_transit "
        << ledger.in_transit << " + unclaimed " << ledger.unclaimed << " = "
        << accounted;
    violate(now, "conservation", out.str());
  }
}

void InvariantMonitor::check_admission(sim::Time now) {
  core::AdmissionController& adm = ispn_->admission();
  const double quota = adm.config().datagram_quota;
  for (const core::LinkId& link : ispn_->links()) {
    const sim::Rate mu = adm.link_rate(link);
    const sim::Rate g = adm.guaranteed_rate(link);
    const sim::Rate p = adm.predicted_rate(link);
    const double tol = kRateTolerance * mu;
    std::ostringstream where;
    where << "link (" << link.first << "->" << link.second << "): ";
    if (g < -tol || p < -tol) {
      std::ostringstream out;
      out << where.str() << "negative reservation sum: guaranteed " << g
          << ", predicted " << p;
      violate(now, "admission", out.str());
    }
    // Committed WFQ clock rates must fit under the non-datagram share —
    // request() enforces this at admit time; a brown-out re-validation
    // that failed to shed over-committed flows breaks it afterwards.
    if (g > (1.0 - quota) * mu + tol) {
      std::ostringstream out;
      out << where.str() << "guaranteed " << g << " b/s over the "
          << (1.0 - quota) * mu << " b/s non-datagram share of mu=" << mu;
      violate(now, "admission", out.str());
    }
    // The commitment map and the data plane must agree: every committed
    // guaranteed rate has a matching scheduler registration and vice
    // versa.
    const sim::Rate sched_g = ispn_->scheduler(link).guaranteed_rate();
    if (std::abs(sched_g - g) > tol) {
      std::ostringstream out;
      out << where.str() << "admission guaranteed " << g
          << " b/s != scheduler registered " << sched_g << " b/s";
      violate(now, "admission", out.str());
    }
  }
}

void InvariantMonitor::check_schedulers(sim::Time now) {
  for (const core::LinkId& link : ispn_->links()) {
    std::string why;
    if (!ispn_->scheduler(link).self_check(&why)) {
      std::ostringstream out;
      out << "link (" << link.first << "->" << link.second << "): " << why;
      violate(now, "scheduler", out.str());
    }
  }
}

void InvariantMonitor::violate(sim::Time now, const char* check,
                               std::string detail) {
  violations_.push_back(Violation{now, check, std::move(detail)});
}

std::string InvariantMonitor::report() const {
  std::ostringstream out;
  for (const Violation& v : violations_) {
    out << "t=" << v.time << " " << v.check << ": " << v.detail << "\n";
  }
  return out.str();
}

}  // namespace ispn::scenario
