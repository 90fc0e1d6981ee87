// Collective migration (§6, third application service).
//
// Migrates a group of entities to new host nodes, leveraging tracked memory
// content redundancy: a block whose content already exists in some entity
// resident at the *destination* node is reconstructed locally from that
// replica instead of being shipped across the network — the "identical
// content at source and destination" optimization the introduction
// motivates. Unlike collective checkpointing this service is built directly
// on the query/update interfaces (§3.3) rather than the service command,
// demonstrating the other supported way of writing an application service.
//
// Per migrating entity the protocol is:
//   1. collect the entity's per-block hashes (NSM ground truth, rehashed);
//   2. batch-ask each DHT shard owner which of those hashes are believed
//      resident at the destination (one request per shard, not per block);
//   3. ship only the blocks that are not; verify claimed-resident blocks by
//      rehashing the local replica and fall back to shipping when the DHT
//      was stale — correctness never depends on the best-effort database;
//   4. stand the entity up on the destination and retire the source.
#pragma once

#include <vector>

#include "core/cluster.hpp"
#include "sim/simulation.hpp"

namespace concord::services {

struct MigrationPlanItem {
  EntityId entity{};
  NodeId destination{};
};

struct MigrationStats {
  Status status = Status::kOk;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_shipped = 0;        // crossed the network
  std::uint64_t blocks_reconstructed = 0;  // satisfied from destination-resident content
  std::uint64_t stale_claims = 0;          // DHT said resident, rehash disagreed
  std::uint64_t wire_bytes = 0;            // bulk data volume
  sim::Time latency = 0;                   // virtual end-to-end
  std::vector<EntityId> new_ids;           // ids of the migrated entities
};

class CollectiveMigration {
 public:
  explicit CollectiveMigration(core::Cluster& cluster) : cluster_(cluster) {}

  /// Migrates every entity in `plan`. The source entities are departed; the
  /// stats name their replacements (same kind/geometry, new ids).
  ///
  /// Monitors run continuously in a real site, so each migrated image is
  /// scanned into the DHT before the next entity moves: later members of a
  /// gang landing near earlier ones reconstruct their shared content
  /// instead of shipping it.
  MigrationStats migrate(std::span<const MigrationPlanItem> plan);

 private:
  core::Cluster& cluster_;
};

}  // namespace concord::services
