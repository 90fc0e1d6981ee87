// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/dht_audit.hpp"

#include <utility>

#include "core/cost_model.hpp"
#include "services/integrity_scrub.hpp"
#include "services/reconcile.hpp"

namespace concord::services {

AuditReport DhtAudit::run() {
  // Wire payload of an audit check batch (host -> shard owner): a list of
  // (hash, entity) pairs. Only the size matters for the traffic model.
  constexpr std::size_t kPairBytes = sizeof(ContentHash) + sizeof(EntityId);
  AuditReport report;
  sim::Simulation& simu = cluster_.sim();
  const core::CostModel& cm = core::CostModel::instance();
  const bool replicated = cluster_.placement().replication() > 1;
  const sim::Time t0 = simu.now();

  // ---- pass 1: find missing entries (host side drives).
  // Every home's replica group, built once: a view installs only between
  // detection windows, never inside a pass.
  const dht::Placement& pl = cluster_.placement();
  std::vector<std::vector<NodeId>> groups(pl.num_nodes());
  for (std::uint32_t home = 0; home < groups.size(); ++home) {
    groups[home] = pl.shard_replicas(home);
  }
  // Check pairs per shard owner, reused across hosts and emitted in owner
  // order, as a real implementation would batch them.
  std::vector<std::uint64_t> batch_pairs(cluster_.num_nodes(), 0);
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down hosts drive nothing
    sim::Time scan = 0;
    for_each_truth(cluster_, cluster_.daemon(node_id(n)),
                   [&](const ContentHash& h, std::span<const EntityId> entities) {
      // Every group member must hold the pair (at R = 1 the group is just
      // the owner, and this degenerates to the single-owner check).
      const std::vector<NodeId>& group = groups[pl.home(h)];
      for (const EntityId e : entities) {
        ++report.entries_checked;
        scan += cm.callback_cost();
        const std::uint64_t missing_before = report.missing_repaired;
        for (const NodeId member : group) {
          ++batch_pairs[raw(member)];
          if (cluster_.daemon(member).store().contains(h, e)) continue;
          // Missing: repair through the normal update interface.
          cluster_.fabric().send_unreliable(net::make_message(
              node_id(n), member, net::MsgType::kDhtInsert, core::DhtUpdateMsg{h, e, true},
              core::kDhtUpdateBytes));
          ++report.missing_repaired;
        }
        if (replicated && report.missing_repaired > missing_before) ++report.under_replicated;
      }
    });
    // Charge the batched check traffic (one request per owner, paired
    // replies) and the host-side scan.
    for (std::uint32_t owner = 0; owner < batch_pairs.size(); ++owner) {
      const std::uint64_t pairs = std::exchange(batch_pairs[owner], 0);
      if (pairs == 0 || owner == n) continue;
      cluster_.fabric().send_unreliable(
          net::make_message(node_id(n), node_id(owner), net::MsgType::kControl,
                            std::uint64_t{pairs}, pairs * kPairBytes));
    }
    simu.run_until(simu.now() + scan);
  }

  // ---- pass 2: find stale, misplaced and corrupt entries (shard side drives).
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    if (cluster_.fault().is_down(node_id(n))) continue;  // down shards keep their drift
    core::ServiceDaemon& owner = cluster_.daemon(node_id(n));
    std::vector<std::pair<ContentHash, EntityId>> stale, misplaced, corrupt;
    const sim::Time scan = cm.scan_cost(owner.store().unique_hashes());
    for_each_pair(owner, [&](const ContentHash& h, EntityId e, bool served) {
      ++report.entries_checked;
      if (!served) {
        // Ownership moved with the membership epoch: queries no longer look
        // here (pass 1 re-inserts at the current group from ground truth).
        misplaced.emplace_back(h, e);
      } else if (cluster_.registry().alive(e) &&
                 cluster_.fault().is_down(cluster_.registry().host_of(e))) {
        // The authoritative host cannot answer: not provably stale.
      } else if (!holds(cluster_, h, e)) {
        stale.emplace_back(h, e);
      } else if (scrub_ != nullptr && !scrub_->verify_entry(h, e)) {
        // The block map vouches for the entry but the bytes do not:
        // corrupt, not stale — quarantine through the scrub so the
        // integrity gauges and flight-recorder events fire.
        corrupt.emplace_back(h, e);
      }
    });
    // Removal is local to the shard: apply directly (no datagram race — the
    // check above consulted the authoritative host).
    for (const auto& [h, e] : stale) owner.store().remove(h, e);
    for (const auto& [h, e] : misplaced) owner.store().remove(h, e);
    for (const auto& [h, e] : corrupt) scrub_->quarantine(node_id(n), h, e);
    report.stale_removed += stale.size();
    report.misplaced_removed += misplaced.size();
    report.corrupt_quarantined += corrupt.size();
    if (replicated) report.over_replicated += misplaced.size();
    simu.run_until(simu.now() + scan);
  }

  simu.run();  // deliver (or lose) the repair datagrams
  report.latency = simu.now() - t0;
  if (report.clean()) {
    // A clean pass certified every alive replica against ground truth, so
    // the audit doubles as the convergence oracle for dirty-shard markers:
    // a shard whose whole group died (no resync donor) would otherwise
    // refuse reads forever. Releasing the markers here is safe precisely
    // because nothing needed repair.
    const std::uint64_t epoch = cluster_.membership().epoch;
    for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
      if (cluster_.fault().is_down(node_id(n))) continue;  // unaudited: keep drift
      cluster_.daemon(node_id(n)).mark_all_insync(epoch);
    }
  } else {
    // Tracked state drifted from ground truth — a postmortem trigger: stamp
    // the mismatch into every ring and dump the black box before further
    // passes repair the evidence away.
    cluster_.blackbox().record_all(
        simu.now(), obs::FrEvent::kAuditMismatch, 0, 0,
        report.missing_repaired + report.stale_removed + report.misplaced_removed);
    cluster_.blackbox().dump("audit_mismatch");
  }
  return report;
}

AuditReport DhtAudit::run_to_convergence(int max_passes) {
  AuditReport total;
  for (int pass = 0; pass < max_passes; ++pass) {
    const AuditReport r = run();
    total.entries_checked += r.entries_checked;
    total.missing_repaired += r.missing_repaired;
    total.stale_removed += r.stale_removed;
    total.misplaced_removed += r.misplaced_removed;
    total.under_replicated += r.under_replicated;
    total.over_replicated += r.over_replicated;
    total.corrupt_quarantined += r.corrupt_quarantined;
    total.latency += r.latency;
    if (r.clean()) break;
  }
  return total;
}

}  // namespace concord::services
