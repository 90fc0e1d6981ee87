#include "services/replica_resync.hpp"

#include "services/reconcile.hpp"

namespace concord::services {

ReplicaResync::ReplicaResync(core::Cluster& cluster)
    : cluster_(cluster),
      runs_(cluster.metrics().counter("dht", "resync_runs")),
      shards_(cluster.metrics().counter("dht", "resync_shards")),
      records_(cluster.metrics().counter("dht", "resync_records")) {
  // Registered after the cluster's dirty-marking listener (and after any
  // ShardRecovery constructed earlier), so dirty state and any fallback
  // republish decisions are already settled when this fires.
  cluster_.detector().on_epoch_change([this](const auto&) { last_ = resync(); });
}

ResyncReport ReplicaResync::resync() {
  ResyncReport rep{.epoch = cluster_.membership().epoch};
  if (cluster_.placement().replication() <= 1) return rep;  // no replica to stream from

  const sim::Time t0 = cluster_.sim().now();
  runs_.inc();
  (void)sync_dirty_shards(cluster_, rep);
  shards_.inc(rep.shards_synced);
  records_.inc(rep.records_streamed);
  cluster_.sim().run();  // deliver (or lose, beyond retries) every stream chunk
  rep.latency = cluster_.sim().now() - t0;
  return rep;
}

}  // namespace concord::services
