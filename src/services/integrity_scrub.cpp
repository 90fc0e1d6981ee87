// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/integrity_scrub.hpp"

#include <utility>

#include "core/cost_model.hpp"
#include "services/reconcile.hpp"

namespace concord::services {

IntegrityScrub::IntegrityScrub(core::Cluster& cluster)
    : cluster_(cluster),
      quarantined_(cluster.metrics().counter("dht", "entries_quarantined")),
      repaired_(cluster.metrics().counter("dht", "entries_repaired")),
      resync_shards_(cluster.metrics().counter("dht", "resync_shards")),
      resync_records_(cluster.metrics().counter("dht", "resync_records")) {}

bool IntegrityScrub::verify_entry(const ContentHash& h, EntityId e) const {
  return holds(cluster_, h, e, /*rehash=*/true);
}

void IntegrityScrub::quarantine(NodeId member, const ContentHash& h, EntityId e) {
  cluster_.daemon(member).store().remove(h, e);
  quarantined_.inc();
  cluster_.blackbox().record(raw(member), cluster_.sim().now(), obs::FrEvent::kEntryQuarantined,
                             static_cast<std::uint16_t>(raw(e)),
                             raw(cluster_.registry().host_of(e)), h.lo);
  pending_.push_back({h, e, member});
}

ScrubReport IntegrityScrub::scrub() {
  ScrubReport rep{.rounds = 1};
  sim::Simulation& simu = cluster_.sim();
  const core::CostModel& cm = core::CostModel::instance();
  const sim::Time t0 = simu.now();

  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down shards keep their drift
    std::vector<std::pair<ContentHash, EntityId>> bad;
    sim::Time scan = 0;
    for_each_pair(cluster_.daemon(node_id(n)), [&](const ContentHash& h, EntityId e,
                                                   bool served) {
      // Misplaced entries are the audit's territory; the scrub only judges
      // entries this member legitimately serves. Dead entities are stale,
      // not corrupt, and a down host cannot vouch for anything.
      if (!served || !cluster_.registry().alive(e)) return;
      if (cluster_.fault().is_down(cluster_.registry().host_of(e))) return;
      ++rep.entries_checked;
      scan += cm.hash_cost(cluster_.params().hash_algorithm, cluster_.entity(e).block_size());
      if (!verify_entry(h, e)) bad.emplace_back(h, e);
    });
    for (const auto& [h, e] : bad) quarantine(node_id(n), h, e);
    rep.quarantined += bad.size();
    simu.run_until(simu.now() + scan);
  }

  rep.latency = simu.now() - t0;
  return rep;
}

void IntegrityScrub::heal() {
  if (pending_.empty()) return;
  // Each quarantined member's home shard goes dirty, so its donor is some
  // other group member; a home without one is rebuilt from ground truth.
  for (const Quarantined& q : pending_) {
    const std::uint32_t home = cluster_.placement().home(q.hash);
    cluster_.daemon(q.member).mark_shard_dirty(home, cluster_.membership().epoch);
  }
  ResyncReport streams;
  const std::vector<bool> orphaned = sync_dirty_shards(cluster_, streams);
  resync_shards_.inc(streams.shards_synced);
  resync_records_.inc(streams.records_streamed);
  // Rebuilds the orphans, then delivers (or loses) all of the repair traffic.
  (void)republish(cluster_, [&](std::uint32_t home) { return orphaned[home]; });
}

ScrubReport IntegrityScrub::scrub_and_heal() {
  ScrubReport total;
  for (int round = 0; round < kMaxRounds; ++round) {
    // Heal anything already on the quarantine list (from a previous round,
    // or a standalone scrub() call) before verifying, so a clean pass below
    // really does certify the repairs it credits.
    heal();
    const ScrubReport r = scrub();
    total.entries_checked += r.entries_checked;
    total.quarantined += r.quarantined;
    total.rounds += r.rounds;
    total.latency += r.latency;
    if (r.clean()) {
      // A clean pass re-hashed every verifiable entry and found nothing
      // corrupt: the heal held, so the whole pending quarantine list is
      // certified repaired.
      total.repaired += pending_.size();
      for (const Quarantined& q : pending_) {
        repaired_.inc();
        cluster_.blackbox().record(raw(q.member), cluster_.sim().now(),
                                   obs::FrEvent::kEntryRepaired,
                                   static_cast<std::uint16_t>(raw(q.entity)),
                                   cluster_.placement().home(q.hash), q.hash.lo);
      }
      pending_.clear();
      break;
    }
  }
  return total;
}

}  // namespace concord::services
