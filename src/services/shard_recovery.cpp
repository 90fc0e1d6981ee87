#include "services/shard_recovery.hpp"

#include <algorithm>

#include "services/reconcile.hpp"

namespace concord::services {

ShardRecovery::ShardRecovery(core::Cluster& cluster)
    : cluster_(cluster),
      prev_alive_(cluster.placement().alive()),
      runs_(cluster.metrics().counter("dht", "recovery_runs")),
      republished_(cluster.metrics().counter("dht", "recovery_republished")),
      skipped_replicated_(cluster.metrics().counter("dht", "recovery_skipped_replicated")) {
  // Registered after the cluster's own placement and dirty-marking
  // listeners, so by the time this fires owner() already answers under the
  // new view and every newcomer to a group is dirty.
  cluster_.detector().on_epoch_change([this](const auto&) { last_ = recover(); });
}

RecoveryReport ShardRecovery::recover() {
  RecoveryReport rep{.epoch = cluster_.membership().epoch};
  const sim::Time t0 = cluster_.sim().now();
  runs_.inc();

  // Per home: skip it (its group is unchanged, or a donor that served it
  // before the change survives and ReplicaResync streams it), or republish
  // it from ground truth. The donor must predate the change: newcomers are
  // dirty at R > 1, and at R = 1, where nothing is ever dirty, the lone
  // member of a changed group is exactly the node that holds nothing.
  const dht::Placement& pl = cluster_.placement();
  std::vector<bool> deferred(pl.num_nodes(), false), rebuilt(pl.num_nodes(), false);
  for (std::uint32_t home = 0; home < pl.num_nodes(); ++home) {
    const std::vector<NodeId> prev = pl.shard_replicas_in(prev_alive_, home);
    if (prev == pl.shard_replicas(home)) continue;
    const core::ServiceDaemon* d = donor_for(cluster_, home);
    const bool survived = d != nullptr && std::ranges::find(prev, d->id()) != prev.end();
    (survived ? deferred : rebuilt)[home] = true;
  }

  prev_alive_ = pl.alive();
  rep.republished = republish(cluster_, [&](std::uint32_t home) {
    ++rep.hashes_checked;
    if (deferred[home]) ++rep.skipped_replicated;
    return rebuilt[home];
  });
  republished_.inc(rep.republished);
  skipped_replicated_.inc(rep.skipped_replicated);
  rep.latency = cluster_.sim().now() - t0;
  return rep;
}

}  // namespace concord::services
