// The content-sharing query interface (Fig. 3).
//
// Node-wise queries (num_copies, entities) touch exactly one DHT shard: the
// zero-hop owner of the queried hash. Collective queries (sharing,
// intra_sharing, inter_sharing, num_shared_content, shared_content)
// aggregate over every shard; because the hash space is partitioned, each
// daemon computes an independent partial result over its local "slice of
// life" and the controller sums them — ConCORD's purpose-specific
// map-reduce (§3.1, §3.3).
//
// Execution is charged to virtual time: network legs through the Fabric,
// per-shard computation by measuring the real computation on the host clock
// and advancing the simulation by that amount. Latencies reported here are
// therefore end-to-end virtual times with genuine compute inside — the
// quantity Figs. 8 and 9 plot.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/cluster.hpp"
#include "sim/simulation.hpp"

namespace concord::query {

/// All query answers reflect the best-effort database, which can err in
/// *both* directions: lost insert updates undercount, lost remove updates
/// leave stale entries that overcount until a rescan or audit repairs them.
/// Consumers that need ground truth verify against the NSM (as the service
/// command does).
///
/// Result of a node-wise query (§3.3 "node-wise").
struct NodewiseAnswer {
  std::size_t num_copies = 0;          // entities believed to hold the hash
  std::vector<EntityId> entities;      // filled by entities(); empty otherwise
  sim::Time latency = 0;               // request -> answer, virtual
  sim::Time compute_time = 0;          // time at the answering node
  /// kOk when some replica served the read; kDegraded when every candidate
  /// timed out, fast-failed, or refused (dirty shard) — the answer fields
  /// are then defaults. At R = 1 this is simply "did the owner answer".
  Status status = Status::kOk;
};

/// Result of the sharing()/intra_sharing()/inter_sharing() family. One
/// distributed pass computes all three (the paper exposes them as separate
/// queries; they share the same scan).
struct SharingAnswer {
  std::uint64_t total_copies = 0;   // Σ_h |S_h ∩ Q|  (entity-copies of tracked content)
  std::uint64_t unique_hashes = 0;  // #hashes present in the query set
  std::uint64_t sharing = 0;        // total_copies - unique_hashes (redundant copies)
  std::uint64_t intra_sharing = 0;  // redundancy among co-located entities
  std::uint64_t inter_sharing = 0;  // redundancy across nodes
  sim::Time latency = 0;

  /// Fraction of copies that are redundant — the "DoS" series of Fig. 14.
  [[nodiscard]] double degree_of_sharing() const noexcept {
    return total_copies == 0
               ? 0.0
               : static_cast<double>(sharing) / static_cast<double>(total_copies);
  }
};

/// Result of the "at least k copies" queries.
struct KCopyAnswer {
  std::uint64_t num_hashes = 0;          // num_shared_content(S, k)
  std::vector<ContentHash> hashes;       // shared_content(S, k); empty if not requested
  sim::Time latency = 0;
};

class QueryEngine {
 public:
  /// Per-shard partial result for any collective query; merged by addition
  /// because the hash space is partitioned across shards.
  struct CollectivePartial {
    std::uint64_t total = 0, unique = 0, intra = 0, inter = 0, k_count = 0;
    std::vector<ContentHash> k_hashes;
  };

  explicit QueryEngine(core::Cluster& cluster)
      : cluster_(cluster),
        read_failover_(cluster.metrics().counter("query", "read_failover")),
        read_refused_(cluster.metrics().counter("query", "read_refused")) {}

  /// number num_copies(content_hash) — one round trip to the shard owner.
  NodewiseAnswer num_copies(NodeId from, const ContentHash& h);

  /// entity_set entities(content_hash) — one round trip to the shard owner.
  NodewiseAnswer entities(NodeId from, const ContentHash& h);

  /// number sharing/intra_sharing/inter_sharing(entity_set) in one pass.
  SharingAnswer sharing(NodeId from, std::span<const EntityId> set);

  /// number num_shared_content(entity_set, k).
  KCopyAnswer num_shared_content(NodeId from, std::span<const EntityId> set, std::size_t k);

  /// hash_set shared_content(entity_set, k).
  KCopyAnswer shared_content(NodeId from, std::span<const EntityId> set, std::size_t k);

 private:
  NodewiseAnswer entities_impl(NodeId from, const ContentHash& h, bool want_entities);

  /// Computes one shard's partial result for any collective query.
  CollectivePartial compute_partial(const core::ServiceDaemon& d,
                                    const Bitmap& query_set, std::size_t k,
                                    bool collect_hashes) const;

  /// Runs the scatter/gather for a collective query; returns aggregate and
  /// fills latency.
  CollectivePartial run_collective(NodeId from, std::span<const EntityId> set, std::size_t k,
                                   bool collect_hashes, sim::Time& latency);

  core::Cluster& cluster_;
  std::uint64_t next_req_id_ = 1;
  // Replicated reads (R > 1): extra candidates tried, and dirty-gate refusals.
  obs::Counter& read_failover_;
  obs::Counter& read_refused_;
};

}  // namespace concord::query
