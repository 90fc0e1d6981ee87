#include "services/replica_resync.hpp"

#include "services/reconcile.hpp"

namespace concord::services {

ReplicaResync::ReplicaResync(core::Cluster& cluster, bool auto_resync) : cluster_(cluster) {
  if (auto_resync) {
    // Registered after the cluster's dirty-marking listener (and after any
    // ShardRecovery constructed earlier), so dirty state and any fallback
    // republish decisions are already settled when this fires.
    cluster_.detector().on_epoch_change([this](const auto&) { last_ = resync(); });
  }
}

ResyncReport ReplicaResync::resync() {
  ResyncReport rep{.epoch = cluster_.membership().epoch};
  if (cluster_.placement().replication() <= 1) return rep;  // no replica to stream from

  const sim::Time t0 = cluster_.sim().now();
  // Lazy cells (dht/resync_runs here; resync_shards and resync_records per
  // stream): an R = 1 cluster that merely constructs the service keeps its
  // metric snapshots byte-identical to one without it.
  cluster_.metrics().counter("dht", "resync_runs").inc();
  (void)sync_dirty_shards(cluster_, rep);
  cluster_.sim().run();  // deliver (or lose, beyond retries) every stream chunk
  rep.latency = cluster_.sim().now() - t0;
  return rep;
}

}  // namespace concord::services
