// ShardRecovery: the epoch-change trigger of DHT reconciliation (DESIGN.md
// §16 "DHT reconciliation").
//
// When a node dies, its shard of the content-tracing DHT dies with it and
// the epoch-aware Placement remaps the orphaned hashes to alive successors;
// when it returns, ownership snaps back to an (empty, if it crashed) home
// shard. Either way the distributed database has a coverage hole exactly
// where the exploitable redundancy used to be. Ground truth never left:
// every node's NSM block map still knows what its entities hold (§3.2).
// After every view change this service diffs each home shard's replica
// group between the remembered and the current view. A changed group whose
// donor survived is left to ReplicaResync's cheap stream; any other changed
// home is re-published from the block maps through the normal batched
// update interface. Repairs are therefore best-effort; DhtAudit convergence
// is the correctness oracle.
//
// Detection windows run from the top level (Cluster::detect()), so pumping
// the simulation to deliver the republish traffic is safe here.
#pragma once

#include <vector>

#include "core/cluster.hpp"

namespace concord::services {

struct RecoveryReport {
  std::uint64_t epoch = 0;            // view the recovery ran against
  std::uint64_t hashes_checked = 0;   // ground-truth hashes examined
  std::uint64_t republished = 0;      // (hash, entity) pairs re-published
  /// R > 1 only: hashes whose group changed but which still have an alive
  /// in-sync replica — republish skipped, ReplicaResync streams them instead.
  std::uint64_t skipped_replicated = 0;
  sim::Time latency = 0;
};

class ShardRecovery {
 public:
  /// Registers the service as an epoch listener: it runs after every view
  /// change.
  explicit ShardRecovery(core::Cluster& cluster);

  ShardRecovery(const ShardRecovery&) = delete;
  ShardRecovery& operator=(const ShardRecovery&) = delete;

  /// Re-publishes every home shard whose replica group differs between the
  /// remembered previous view and the current one and has no surviving
  /// donor, then pumps the simulation so the updates land (or are lost).
  /// Call from the top level only.
  RecoveryReport recover();

  [[nodiscard]] const RecoveryReport& last_report() const noexcept { return last_; }
  [[nodiscard]] std::uint64_t total_republished() const noexcept {
    return republished_.value();
  }

 private:
  core::Cluster& cluster_;
  // The placement view the DHT contents were built under: the view current
  // at construction, then the one each recovery ran against.
  std::vector<bool> prev_alive_;
  RecoveryReport last_;
  obs::Counter& runs_;
  obs::Counter& republished_;
  obs::Counter& skipped_replicated_;
};

}  // namespace concord::services
