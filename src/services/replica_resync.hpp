// ReplicaResync: the replica-stream trigger of DHT reconciliation (DESIGN.md
// §16 "DHT reconciliation").
//
// In a replicated DHT (dht_replication > 1) a crash no longer makes a shard's
// content unreachable — the surviving group members still serve it — but the
// member drafted in (or wiped and healed) holds nothing and is marked *dirty*
// for every home shard it replicates. The Cheap-Recovery move (PAPERS.md) is
// to repair such a member from a surviving replica, not from every host's
// ground truth: the donor with the highest applied membership epoch streams
// the dirty home shard's records over the reliable class, and the target
// flips the shard clean when the stream's last chunk lands. ShardRecovery's
// republish remains only as the fallback when a group lost all of its
// in-sync members.
//
// Like ShardRecovery, the service registers as an epoch listener and runs
// after every detection window that changes the view (after the cluster's
// own dirty-marking listener, so shard_insync() already reflects the new
// epoch). The whole service is a no-op at R = 1: it sends nothing, and its
// dht/resync_* cells read zero.
#pragma once

#include "core/cluster.hpp"

namespace concord::services {

struct ResyncReport {
  std::uint64_t epoch = 0;             // view the resync ran against
  std::uint64_t shards_examined = 0;   // home shards with a dirty alive member
  std::uint64_t shards_synced = 0;     // (home, target) streams sent
  std::uint64_t records_streamed = 0;  // update records across all streams
  std::uint64_t no_donor = 0;          // dirty shards with no in-sync survivor
  sim::Time latency = 0;
};

class ReplicaResync {
 public:
  /// Registers the service as an epoch listener: it runs after every view
  /// change.
  explicit ReplicaResync(core::Cluster& cluster);

  ReplicaResync(const ReplicaResync&) = delete;
  ReplicaResync& operator=(const ReplicaResync&) = delete;

  /// Streams every dirty home shard from its best surviving donor to the
  /// dirty group members, then pumps the simulation so the chunks land.
  /// Call from the top level only. No-op (empty report) at R = 1.
  ResyncReport resync();

  [[nodiscard]] const ResyncReport& last_report() const noexcept { return last_; }
  /// Site-wide dht/resync_records: every shard stream's records, whichever
  /// service triggered it.
  [[nodiscard]] std::uint64_t total_records_streamed() const noexcept {
    return records_.value();
  }

 private:
  core::Cluster& cluster_;
  ResyncReport last_;
  obs::Counter& runs_;
  obs::Counter& shards_;   // dht/resync_shards
  obs::Counter& records_;  // dht/resync_records
};

}  // namespace concord::services
