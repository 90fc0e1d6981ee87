// The per-shard kernel of every collective query (§3.3).
//
// Because the hash space is partitioned across shards, any collective query
// reduces to one pass over each shard — counting copies, splitting
// redundancy into intra-/inter-node, and collecting "at least k copies"
// hashes — whose partial results merge by addition. The QueryEngine runs it
// on every shard and merges the partials.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/bitmap.hpp"
#include "dht/dht_store.hpp"

namespace concord::dht {

struct ScanPartial {
  std::uint64_t total = 0;    // Σ_h |S_h ∩ Q|
  std::uint64_t unique = 0;   // #hashes with a member in Q
  std::uint64_t intra = 0;    // redundancy among co-located entities
  std::uint64_t inter = 0;    // redundancy across nodes
  std::uint64_t k_count = 0;  // #hashes with >= k members
  std::vector<ContentHash> k_hashes;

  ScanPartial& operator+=(const ScanPartial& o) {
    total += o.total;
    unique += o.unique;
    intra += o.intra;
    inter += o.inter;
    k_count += o.k_count;
    k_hashes.insert(k_hashes.end(), o.k_hashes.begin(), o.k_hashes.end());
    return *this;
  }
};

/// One shard's partial result.
///
/// @param query_set    entity bitmap of the query scope
/// @param entity_host  host node index per entity id (the site membership
///                     every daemon knows); entities beyond the span are
///                     treated as unplaced and skipped
/// @param k            threshold for the k-copy counters (pass ~0 to disable)
/// @param collect_hashes  fill k_hashes as well as k_count
/// @param serve_hash   optional per-hash admission filter. In a replicated
///                     DHT (R > 1) the same hash lives on R shards, so a
///                     naive all-shards sum counts every copy R times; each
///                     shard passes a canonical-reader predicate (am I this
///                     hash's primary owner?) so exactly one shard counts
///                     it. Empty (the default) admits every entry — the
///                     single-owner behavior.
[[nodiscard]] ScanPartial collective_scan(
    const DhtStore& store, const Bitmap& query_set,
    std::span<const std::uint32_t> entity_host, std::size_t k, bool collect_hashes,
    const std::function<bool(const ContentHash&)>& serve_hash = {});

}  // namespace concord::dht
