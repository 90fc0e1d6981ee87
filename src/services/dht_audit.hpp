// DhtAudit: reconcile the best-effort distributed database with ground
// truth; the explicit-audit trigger and convergence oracle of DHT
// reconciliation (DESIGN.md §16 "DHT reconciliation").
//
// ConCORD's DHT drifts from reality: update datagrams are lost, entities
// mutate between scans, departures may not scrub every entry. The paper's
// design tolerates this (every consumer re-verifies), but drift costs
// efficiency — stale entries cause replica retries, missing entries shrink
// the exploitable redundancy. This platform-maintenance service walks each
// node's ground truth (the NSM block map) and the DHT shards, then issues
// repair updates over the normal update interface (§3.3 insert/remove):
//
//   * missing — content a local entity really holds whose (hash, entity)
//     pair is absent from the owner shard: re-insert;
//   * stale   — (hash, entity) pairs in a shard that the entity's host can
//     no longer substantiate: remove.
//
// Repairs ride the same unreliable datagram class as monitor updates, so an
// audit is itself best-effort; repeated audits converge (tested).
#pragma once

#include "core/cluster.hpp"

namespace concord::services {

class IntegrityScrub;

struct AuditReport {
  std::uint64_t entries_checked = 0;     // (hash, entity) pairs examined
  std::uint64_t missing_repaired = 0;    // inserts issued (one per missing replica)
  std::uint64_t stale_removed = 0;       // removes issued
  std::uint64_t misplaced_removed = 0;   // entries at a node placement no longer maps to
  // R > 1 columns (always 0 at R = 1): ground-truth pairs held by fewer /
  // more group members than placement prescribes. Under-replication is
  // repaired by pass-1 inserts at the missing replicas; over-replication is
  // the misplaced-removal path seen from the replica-group angle.
  std::uint64_t under_replicated = 0;
  std::uint64_t over_replicated = 0;
  /// Entries that were substantiated by the host's block map but failed
  /// audit-time re-hash verification (only checked with a scrub attached);
  /// quarantined through the scrub, not counted as stale.
  std::uint64_t corrupt_quarantined = 0;
  sim::Time latency = 0;

  [[nodiscard]] bool clean() const noexcept {
    return missing_repaired == 0 && stale_removed == 0 && misplaced_removed == 0 &&
           corrupt_quarantined == 0;
  }
};

class DhtAudit {
 public:
  explicit DhtAudit(core::Cluster& cluster) : cluster_(cluster) {}

  /// One full audit pass over every node. Returns what was repaired. Down
  /// nodes neither drive checks nor are consulted: their entries are left
  /// alone (unsubstantiable, not provably stale), and repairs addressed to
  /// them blackhole like any other datagram — audits converge once the
  /// cluster heals and a detection window restores the view. Entries
  /// sitting at a node the current placement no longer maps their hash to
  /// (ownership moved with the epoch) are removed as misplaced; the host
  /// side re-inserts them at the current owner. At R > 1 pass 1 checks and
  /// repairs every replica-group member (non-members are the misplaced
  /// set), and a clean pass releases any surviving dirty-shard markers on
  /// audited daemons — the audit is the replication convergence oracle.
  AuditReport run();

  /// Runs audit passes until a pass finds nothing to repair (or
  /// `max_passes` is hit — datagram loss can make one pass insufficient).
  AuditReport run_to_convergence(int max_passes = 8);

  /// Audit-time re-hash verification: with a scrub attached, pass 2 no
  /// longer trusts block-map agreement alone — substantiated entries are
  /// also re-hashed against the entity's actual content and failures are
  /// quarantined through the scrub (gauge + flight-recorder event).
  void attach_scrub(IntegrityScrub* scrub) noexcept { scrub_ = scrub; }

 private:
  core::Cluster& cluster_;
  IntegrityScrub* scrub_ = nullptr;
};

}  // namespace concord::services
