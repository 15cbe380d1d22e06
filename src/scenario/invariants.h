// Runtime invariant monitor (ISSUE "self-checking under faults").
//
// Under a healthy fault plane every crash, brown-out, loss episode and
// reroute moves packets and reservations between ledger buckets without
// ever losing one.  The monitor audits that claim CONTINUOUSLY — at a
// configurable sim-time cadence, not just at run end — so a corrupted
// counter or a leaked reservation is caught within one cadence of the
// event that caused it, while the scenario state that explains it is
// still live.
//
// Three families of checks, each against live engine state:
//
//  1. packet conservation — generated == source_drops + injected, and
//     injected == delivered + every drop bucket + queued + in-transit
//     (mid-run, packets legitimately sit in port queues and shard
//     mailboxes; the caller snapshots those into the Ledger);
//  2. admission accounting — per link: committed guaranteed clock rates
//     fit under the non-datagram share, committed sums are non-negative,
//     and the admission ledger agrees with the scheduler's registered
//     guaranteed rate (the commitment map and the data plane must never
//     drift apart);
//  3. scheduler coherence — UnifiedScheduler::self_check on every link:
//     queue occupancy vs packet count, flow-0 tag bookkeeping, WFQ
//     weight consistency.
//
// Violations are structured (which check, which link, what the numbers
// were) and sticky; the runner surfaces them in the report and exits
// non-zero.  Audits MUST run between simulator events (the scheduler
// self-check reads mid-event-inconsistent state otherwise).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/builder.h"

namespace ispn::scenario {

class InvariantMonitor {
 public:
  /// A mid-run snapshot of the packet ledger, supplied by the runner
  /// (which owns the source/sink bookkeeping the network cannot see).
  struct Ledger {
    std::uint64_t generated = 0;
    std::uint64_t source_drops = 0;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t net_drops = 0;
    std::uint64_t failed_link_drops = 0;
    std::uint64_t node_failure_drops = 0;
    std::uint64_t fault_drops = 0;
    std::uint64_t queued = 0;      ///< sitting in port queues right now
    std::uint64_t in_transit = 0;  ///< crossing shard mailboxes right now
    std::uint64_t unclaimed = 0;   ///< alive in the pool but unaccounted

    /// Where the injected packets are: delivered, in a loss bucket, or
    /// still on their way.  Conservation holds when this equals injected.
    [[nodiscard]] std::uint64_t accounted() const {
      return delivered + net_drops + failed_link_drops + node_failure_drops +
             fault_drops + queued + in_transit + unclaimed;
    }
  };

  /// One failed check.
  struct Violation {
    sim::Time time = 0;
    std::string check;   ///< "conservation", "admission", "scheduler"
    std::string detail;  ///< the numbers that disagreed
  };

  explicit InvariantMonitor(core::IspnNetwork& ispn) : ispn_(&ispn) {}

  /// Runs every check against the current engine state plus the caller's
  /// ledger snapshot.  Returns the number of NEW violations found by this
  /// sweep (all are also retained in violations()).  Call between
  /// simulator events only.
  std::size_t audit(sim::Time now, const Ledger& ledger);

  [[nodiscard]] std::uint64_t audits() const { return audits_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// Formats every violation as one line each ("t=... check: detail").
  [[nodiscard]] std::string report() const;

 private:
  void check_conservation(sim::Time now, const Ledger& ledger);
  void check_admission(sim::Time now);
  void check_schedulers(sim::Time now);

  void violate(sim::Time now, const char* check, std::string detail);

  core::IspnNetwork* ispn_;
  std::uint64_t audits_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace ispn::scenario
