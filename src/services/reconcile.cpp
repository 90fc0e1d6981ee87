// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/reconcile.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "core/cost_model.hpp"

namespace concord::services {

bool holds(core::Cluster& c, const ContentHash& h, EntityId e, bool rehash) {
  if (!c.registry().alive(e)) return false;
  core::ServiceDaemon& host = c.daemon(c.registry().host_of(e));
  const auto* locs = host.block_map().find(h);
  return locs != nullptr && std::ranges::any_of(*locs, [&](const mem::BlockLocation& loc) {
    return loc.entity == e &&
           (!rehash || host.monitor().hasher()(c.entity(e).block(loc.block)) == h);
  });
}

const core::ServiceDaemon* donor_for(const core::Cluster& c, std::uint32_t home) {
  const core::ServiceDaemon* donor = nullptr;
  for (const NodeId n : c.placement().shard_replicas(home)) {
    const core::ServiceDaemon& d = c.daemon(n);
    if (!c.membership().is_alive(n) || !d.shard_insync(home)) continue;
    if (donor == nullptr || d.applied_epoch() > donor->applied_epoch()) donor = &d;
  }
  return donor;
}

std::vector<bool> sync_dirty_shards(core::Cluster& c, ResyncReport& rep) {
  // One home shard's slice of a member's store, as update records.
  auto slice = [](const core::ServiceDaemon& member, std::uint32_t home) {
    std::vector<dht::UpdateRecord> out;
    for_each_pair(member, [&](const ContentHash& h, EntityId e, bool) {
      if (member.placement().home(h) == home) out.push_back(dht::UpdateRecord{h, e, true});
    });
    return out;
  };
  std::vector<bool> orphaned(c.placement().num_nodes(), false);
  const std::size_t chunk_records = c.params().update_batching.max_records();
  for (std::uint32_t home = 0; home < orphaned.size(); ++home) {
    std::vector<NodeId> targets = c.placement().shard_replicas(home);  // alive dirty members
    std::erase_if(targets, [&](NodeId n) {
      return !c.membership().is_alive(n) || c.daemon(n).shard_insync(home);
    });
    if (targets.empty()) continue;
    ++rep.shards_examined;
    const core::ServiceDaemon* donor = donor_for(c, home);
    orphaned[home] = donor == nullptr;
    if (orphaned[home]) continue;

    const auto records = std::make_shared<const std::vector<dht::UpdateRecord>>(
        slice(*donor, home));
    // One donor-side shard walk per stream, charged like any shard scan.
    const sim::Time scan =
        core::CostModel::instance().scan_cost(donor->store().unique_hashes());
    for (const NodeId target : targets) {
      // The target's slice is replaced, not merged: it may hold stale
      // entries from an earlier group membership, and the donor's copy is
      // the authority. Wiping directly keeps the wipe atomic with respect to
      // the stream that follows.
      core::ServiceDaemon& t = c.daemon(target);
      for (const auto& r : slice(t, home)) t.store().remove(r.hash, r.entity);
      ++rep.shards_synced;
      rep.records_streamed += records->size();

      // An empty shard still sends its last-chunk marker so the target can
      // flip clean.
      c.sim().after(scan, [records, chunk_records, donor_id = donor->id(), target, home,
                           epoch = c.membership().epoch, &fabric = c.fabric()]() {
        for (std::size_t off = 0; off == 0 || off < records->size(); off += chunk_records) {
          const std::size_t n = std::min(chunk_records, records->size() - off);
          const auto first = records->begin() + static_cast<std::ptrdiff_t>(off);
          fabric.send_reliable(net::make_message(
              donor_id, target, net::MsgType::kReplicaSync,
              core::ReplicaSyncMsg{home, epoch, off + n >= records->size(),
                                   {first, first + static_cast<std::ptrdiff_t>(n)}},
              core::replica_sync_body_bytes(n)));
        }
      });
    }
  }
  rep.no_donor += static_cast<std::uint64_t>(std::ranges::count(orphaned, true));
  return orphaned;
}

std::uint64_t republish(core::Cluster& c, const std::function<bool(std::uint32_t)>& wanted) {
  const dht::Placement& pl = c.placement();
  std::set<std::uint32_t> rebuilt;
  std::uint64_t pairs = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    if (c.fault().is_down(node_id(n))) continue;  // the down publish nothing
    core::ServiceDaemon& d = c.daemon(node_id(n));
    for_each_truth(c, d, [&](const ContentHash& h, std::span<const EntityId> entities) {
      if (!wanted(pl.home(h))) return;
      rebuilt.insert(pl.home(h));
      for (const EntityId e : entities) d.publish_update(h, e, /*insert=*/true);
      pairs += entities.size();
    });
    d.flush_updates();
  }
  c.sim().run();  // deliver (or lose) the republish batches
  // A rebuilt home has been re-sent from ground truth to every alive group
  // member: nothing cheaper will arrive, so the members flip clean here
  // (best-effort, like the republish itself — an audit pass remains the
  // convergence oracle).
  const core::MembershipView& view = c.membership();
  for (const std::uint32_t home : rebuilt) {
    for (const NodeId member : pl.shard_replicas(home)) {
      if (view.is_alive(member)) c.daemon(member).mark_shard_clean(home, view.epoch);
    }
  }
  return pairs;
}

}  // namespace concord::services
