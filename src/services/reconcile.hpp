// The reconcile core: the one implementation of every mechanism the DHT
// repair services share (DESIGN.md §16 "DHT reconciliation").
//
// ConCORD's DHT is best-effort; the node-local block maps are the ground
// truth it is always rebuilt from (§3.2). ShardRecovery, ReplicaResync,
// IntegrityScrub and DhtAudit differ only in what triggers them (an epoch
// change, an explicit scrub, an explicit audit) and in which differences
// they look for. How a shard is walked, who serves a hash, whether ground
// truth substantiates an entry, which replica donates a shard, how a shard
// is streamed and how homes are re-published all live here, once.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <span>

#include "core/cluster.hpp"
#include "core/service_daemon.hpp"
#include "services/replica_resync.hpp"

namespace concord::services {

/// Calls fn(hash, entity, served) for every (hash, entity) pair in
/// `member`'s store, in the store's deterministic entry order. A pair that
/// is not served here is misplaced.
template <class Fn>
void for_each_pair(const core::ServiceDaemon& member, Fn&& fn) {
  const dht::Placement& pl = member.placement();
  member.store().for_each_entry([&](const ContentHash& h, const std::uint64_t* words,
                                    std::size_t nwords) {
    // The serves test: is the member in h's replica group under the current
    // view? At R = 1 that is exactly owner(h) == member, all-dead fallback
    // included.
    const bool served = pl.is_replica(pl.home(h), member.id());
    for (std::size_t w = 0; w < nwords; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        fn(h, entity_id(static_cast<std::uint32_t>(w * 64 + bit)), served);
      }
    }
  });
}

/// Calls fn(hash, entities) for every hash in `host`'s block map, in the
/// map's order. `entities` lists the distinct alive entities holding the
/// hash, in first-appearance order; it is empty when all have departed.
template <class Fn>
void for_each_truth(const core::Cluster& c, const core::ServiceDaemon& host, Fn&& fn) {
  std::vector<EntityId> alive;
  host.block_map().for_each([&](const ContentHash& h,
                                const std::vector<mem::BlockLocation>& locs) {
    alive.clear();
    for (const mem::BlockLocation& loc : locs) {
      const EntityId e = loc.entity;
      if (c.registry().alive(e) && std::ranges::count(alive, e) == 0) alive.push_back(e);
    }
    fn(h, std::span<const EntityId>(alive));
  });
}

/// Does the block map on `e`'s host hold `h` for `e`? With `rehash`, one of
/// those blocks must also hash to `h` right now (the integrity check: the
/// map may vouch for bytes that have since rotted). False for dead entities.
[[nodiscard]] bool holds(core::Cluster& c, const ContentHash& h, EntityId e,
                         bool rehash = false);

/// The donor for `home`: the alive, in-sync member of its current replica
/// group with the highest applied epoch (the first in successor order on a
/// tie). Null when every member is dead or dirty.
[[nodiscard]] const core::ServiceDaemon* donor_for(const core::Cluster& c,
                                                   std::uint32_t home);

/// The shard stream: re-syncs every home shard's alive dirty members from
/// donor_for(home). Each target's slice of the shard is wiped, then, after
/// one donor-side shard scan, the donor's records stream to it in MTU-sized
/// reliable kReplicaSync chunks. Tallies into `rep` and returns, per home,
/// whether it is orphaned: dirty with no donor. Does not pump the simulation.
std::vector<bool> sync_dirty_shards(core::Cluster& c, ResyncReport& rep);

/// Re-publishes from ground truth: every host that is up walks its block
/// map and, for each hash whose home `wanted` accepts (asked once per
/// hash), publishes one insert per distinct alive entity through the normal
/// batched update interface. Then pumps the simulation and flips the alive
/// members of every rebuilt home clean. Returns the pairs published.
std::uint64_t republish(core::Cluster& c, const std::function<bool(std::uint32_t)>& wanted);

}  // namespace concord::services
