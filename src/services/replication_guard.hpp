// ReplicationGuard: maintain a minimum content-redundancy level.
//
// The paper's introduction motivates ConCORD with exactly this service:
// "Fault tolerance mechanisms that seek to maintain a given level of
// content redundancy can leverage existing redundancy to reduce their
// memory pressure." Content that already has >= k natural replicas costs
// nothing; only under-replicated content needs explicit copies.
//
// Built on the query interface (§3.3): shared_content(S, k) and
// num_copies() find the under-replicated hashes; the guard then copies each
// to designated per-node *replica entities* — ordinary tracked entities, so
// the new copies enter the DHT on the next monitor epoch and subsequent
// guard runs (and every other service) see them as natural redundancy.
#pragma once

#include <unordered_map>

#include "core/cluster.hpp"
#include "query/queries.hpp"

namespace concord::services {

struct ReplicationReport {
  Status status = Status::kOk;
  std::uint64_t hashes_checked = 0;        // distinct hashes in scope
  std::uint64_t under_replicated = 0;      // below k before the run
  std::uint64_t replicas_created = 0;      // block copies made
  std::uint64_t replicas_leveraged = 0;    // hashes already at >= k (free!)
  std::uint64_t wire_bytes = 0;            // replica placement traffic
  sim::Time latency = 0;
};

class ReplicationGuard {
 public:
  /// @param replica_capacity_blocks  size of the replica entity created on
  ///        each node the first time the guard places a copy there
  ReplicationGuard(core::Cluster& cluster, std::size_t replica_capacity_blocks = 1024)
      : cluster_(cluster), capacity_(replica_capacity_blocks) {}

  /// Ensures every distinct block of `scope` has at least `k` replicas
  /// across distinct nodes (counting the scope's own natural copies).
  /// Rescans after placement so the DHT reflects the new redundancy.
  ReplicationReport ensure(std::span<const EntityId> scope, std::size_t k);

 private:
  struct ReplicaStore {
    EntityId id{};
    BlockIndex next_free = 0;
  };

  /// Gets (or creates) the replica store on `node`; nullptr when full.
  ReplicaStore* store_on(NodeId node, std::size_t block_size);

  core::Cluster& cluster_;
  std::size_t capacity_;
  std::unordered_map<std::uint32_t, ReplicaStore> replicas_;
};

}  // namespace concord::services
