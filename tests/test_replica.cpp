// Replicated DHT shards (DESIGN.md §14): replica-group placement
// properties, single-phase write fan-out, failover reads with dirty-shard
// refusals, cheap replica resync, and the R = 1 byte-identity guarantee.
//
// The headline invariants:
//   * replicas(h) is a pure function of (hash, view, R): primary first,
//     distinct, alive, and owner() == replicas()[0] always;
//   * at R = 3 every read through an owner crash is served by some replica
//     (zero Status::kDegraded across the whole crash -> heal schedule);
//   * a replica that missed updates (dirty) refuses reads until resynced,
//     and the read fails over instead of returning stale data;
//   * ReplicaResync + DhtAudit converge to a clean database under loss and
//     a second mid-schedule crash;
//   * R = 1 runs are byte-identical for any sim_workers count, and a
//     ReplicaResync constructed at R = 1 changes nothing but its own
//     zero-valued cells;
//   * the repair services' reports and per-type traffic on fixed crash ->
//     heal -> audit schedules are pinned exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hash/block_hasher.hpp"
#include "query/queries.hpp"
#include "services/dht_audit.hpp"
#include "services/replica_resync.hpp"
#include "services/shard_recovery.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

constexpr std::size_t kBlk = 256;

std::unique_ptr<core::Cluster> make_cluster(std::uint32_t nodes, std::uint32_t repl,
                                            std::uint64_t seed, double loss = 0.0) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = 64;
  p.seed = seed;
  p.dht_replication = repl;
  p.fabric.loss_rate = loss;
  return std::make_unique<core::Cluster>(p);
}

std::vector<EntityId> populate(core::Cluster& c, std::uint32_t per_node,
                               std::size_t blocks = 12) {
  std::vector<EntityId> out;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    for (std::uint32_t i = 0; i < per_node; ++i) {
      mem::MemoryEntity& e =
          c.create_entity(node_id(n), EntityKind::kProcess, blocks, kBlk);
      workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n * 10 + i));
      out.push_back(e.id());
    }
  }
  (void)c.scan_all();
  return out;
}

/// Distinct content hashes of one entity's ground-truth memory.
std::vector<ContentHash> sample_hashes(const core::Cluster& c, EntityId id,
                                       std::size_t cap = 48) {
  std::vector<ContentHash> out;
  std::set<ContentHash> seen;
  const hash::BlockHasher hasher(c.params().hash_algorithm);
  const mem::MemoryEntity& e = c.entity(id);
  for (BlockIndex b = 0; b < e.num_blocks() && out.size() < cap; ++b) {
    const ContentHash h = hasher(e.block(b));
    if (seen.insert(h).second) out.push_back(h);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Placement: replica groups as a pure function of (hash, view, R).
// ---------------------------------------------------------------------------

TEST(ReplicaPlacement, GroupIsPrimaryFirstDistinctAliveAndSized) {
  dht::Placement pl(8);
  pl.set_replication(3);
  std::vector<bool> alive(8, true);
  alive[2] = alive[5] = false;
  pl.set_view(1, alive);

  for (std::uint64_t i = 0; i < 200; ++i) {
    const ContentHash h{i * 0x9e3779b97f4a7c15ULL, i};
    const std::vector<NodeId> group = pl.replicas(h);
    ASSERT_EQ(group.size(), 3u);             // 6 alive >= R
    EXPECT_EQ(group[0], pl.owner(h));        // primary first, always
    std::set<std::uint32_t> distinct;
    for (const NodeId n : group) {
      EXPECT_TRUE(alive[raw(n)]) << "dead node " << raw(n) << " in group";
      distinct.insert(raw(n));
    }
    EXPECT_EQ(distinct.size(), group.size());
    // is_replica agrees with the materialized group, member or not.
    for (std::uint32_t n = 0; n < 8; ++n) {
      const bool in_group = distinct.contains(n);
      EXPECT_EQ(pl.is_replica(pl.home(h), node_id(n)), in_group) << n;
    }
  }
}

TEST(ReplicaPlacement, RequalsOneIsExactlyTheSingleOwner) {
  dht::Placement pl(5);
  pl.set_replication(1);
  std::vector<bool> alive(5, true);
  alive[1] = false;
  pl.set_view(7, alive);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ContentHash h{i, ~i};
    EXPECT_EQ(pl.replicas(h), std::vector<NodeId>{pl.owner(h)});
  }
}

TEST(ReplicaPlacement, ReplicationClampsToClusterSize) {
  dht::Placement pl(3);
  pl.set_replication(0);
  EXPECT_EQ(pl.replication(), 1u);
  pl.set_replication(99);
  EXPECT_EQ(pl.replication(), 3u);
  const ContentHash h{42, 7};
  EXPECT_EQ(pl.replicas(h).size(), 3u);
}

TEST(ReplicaPlacement, GroupShrinksWithAliveCountAndAllDeadFallsBackToHome) {
  dht::Placement pl(4);
  pl.set_replication(3);
  std::vector<bool> alive(4, false);
  alive[2] = true;
  pl.set_view(1, alive);
  const ContentHash h{11, 13};
  EXPECT_EQ(pl.replicas(h), std::vector<NodeId>{node_id(2)});

  pl.set_view(2, std::vector<bool>(4, false));
  EXPECT_EQ(pl.replicas(h), std::vector<NodeId>{node_id(pl.home(h))});
  EXPECT_TRUE(pl.is_replica(pl.home(h), node_id(pl.home(h))));
}

// ---------------------------------------------------------------------------
// Write fan-out: one monitor epoch lands every (hash, entity) pair on every
// group member, not just the primary.
// ---------------------------------------------------------------------------

TEST(ReplicaFanout, ScanPopulatesEveryGroupMember) {
  auto c = make_cluster(6, 3, 31);
  const auto ids = populate(*c, 1);
  const hash::BlockHasher hasher(c->params().hash_algorithm);
  for (const EntityId id : ids) {
    const mem::MemoryEntity& e = c->entity(id);
    for (BlockIndex b = 0; b < e.num_blocks(); ++b) {
      const ContentHash h = hasher(e.block(b));
      const std::vector<NodeId> group = c->placement().replicas(h);
      ASSERT_EQ(group.size(), 3u);
      for (const NodeId member : group) {
        EXPECT_TRUE(c->daemon(member).store().contains(h, id))
            << "entity " << raw(id) << " hash missing at replica " << raw(member);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Failover reads: zero degraded answers through an owner crash at R = 3.
// ---------------------------------------------------------------------------

TEST(ReplicaFailover, ReadsStayOkThroughOwnerCrashAtRThree) {
  auto c = make_cluster(8, 3, 32);
  const auto ids = populate(*c, 1);
  services::ShardRecovery recovery(*c);
  services::ReplicaResync resync(*c);
  query::QueryEngine q(*c);
  const std::vector<ContentHash> hashes = sample_hashes(*c, ids[0]);
  ASSERT_FALSE(hashes.empty());

  std::uint64_t reads = 0, degraded = 0;
  auto sweep = [&]() {
    for (const ContentHash& h : hashes) {
      const query::NodewiseAnswer a = q.num_copies(node_id(0), h);
      ++reads;
      if (a.status != Status::kOk) ++degraded;
      EXPECT_GE(a.num_copies, 1u);  // never a stale-empty answer either
    }
  };

  sweep();                       // healthy
  c->fault().crash(node_id(3));  // owner of ~1/8 of the set, undetected
  sweep();                       // failover races detection
  (void)c->detect();             // remap + recovery + resync
  sweep();
  c->fault().heal_all();
  (void)c->detect();             // readmission
  (void)c->detect();             // stability; rejoiner streams back in
  sweep();

  EXPECT_EQ(degraded, 0u) << "of " << reads << " reads";
  // The crashed owner really was in some groups: failover had to happen.
  EXPECT_GT(c->metrics().counter_total("query", "read_failover"), 0u);
}

TEST(ReplicaFailover, SameScheduleAtROneDegrades) {
  // Control experiment: the identical schedule at R = 1 loses reads while
  // the crash is undetected — which is exactly what replication buys.
  auto c = make_cluster(8, 1, 32);
  const auto ids = populate(*c, 1);
  query::QueryEngine q(*c);
  const std::vector<ContentHash> hashes = sample_hashes(*c, ids[0]);

  c->fault().crash(node_id(3));
  std::uint64_t degraded = 0;
  for (const ContentHash& h : hashes) {
    if (q.num_copies(node_id(0), h).status != Status::kOk) ++degraded;
  }
  EXPECT_GT(degraded, 0u);
}

// ---------------------------------------------------------------------------
// Dirty-shard refusals: a replica that missed updates refuses reads and the
// query fails over to an in-sync member instead of returning stale data.
// ---------------------------------------------------------------------------

TEST(ReplicaDirty, RejoinedPrimaryRefusesUntilSyncedAndReadsFailOver) {
  auto c = make_cluster(4, 2, 33);
  const auto ids = populate(*c, 1);
  query::QueryEngine q(*c);
  const std::vector<ContentHash> all = sample_hashes(*c, ids[0], 64);

  // No ShardRecovery / ReplicaResync attached: when the crashed node
  // rejoins (store wiped) nothing re-syncs it, so its refusals — it is the
  // primary of its home shard again — are observable.
  c->fault().crash(node_id(1));
  (void)c->detect();
  c->fault().restart(node_id(1));
  (void)c->detect();

  std::vector<ContentHash> orphaned;  // hashes homed at the wiped rejoiner
  for (const ContentHash& h : all) {
    if (c->placement().home(h) == 1u) orphaned.push_back(h);
  }
  ASSERT_FALSE(orphaned.empty());
  ASSERT_EQ(c->placement().owner(orphaned[0]), node_id(1));  // primary again
  EXPECT_FALSE(c->daemon(node_id(1)).shard_insync(1));

  for (const ContentHash& h : orphaned) {
    const query::NodewiseAnswer a = q.num_copies(node_id(0), h);
    EXPECT_EQ(a.status, Status::kOk);
    EXPECT_GE(a.num_copies, 1u);  // served by the surviving in-sync member
  }
  EXPECT_GT(c->metrics().counter_total("query", "read_refused"), 0u);

  // A clean audit pass is the convergence oracle: it certifies (and if
  // needed repairs) every replica, releasing the dirty markers.
  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence();
  EXPECT_TRUE(audit.run().clean());
  EXPECT_TRUE(c->daemon(node_id(1)).shard_insync(1));
}

// ---------------------------------------------------------------------------
// Recovery economics: at R > 1 ShardRecovery defers to the cheap resync
// stream whenever a donor survives; at R = 1 it must republish.
// ---------------------------------------------------------------------------

TEST(ReplicaRecovery, SurvivingDonorTurnsRepublishIntoSkip) {
  auto c3 = make_cluster(6, 3, 34);
  (void)populate(*c3, 1);
  services::ShardRecovery rec3(*c3);
  services::ReplicaResync resync(*c3);
  c3->fault().crash(node_id(2));
  (void)c3->detect();
  EXPECT_GT(rec3.last_report().skipped_replicated, 0u);
  EXPECT_EQ(rec3.last_report().republished, 0u)
      << "every changed group kept an alive in-sync donor";
  EXPECT_GT(resync.last_report().shards_synced, 0u);
  EXPECT_GT(c3->metrics().counter_total("dht", "recovery_skipped_replicated"), 0u);

  auto c1 = make_cluster(6, 1, 34);
  (void)populate(*c1, 1);
  services::ShardRecovery rec1(*c1);
  c1->fault().crash(node_id(2));
  (void)c1->detect();
  EXPECT_GT(rec1.last_report().republished, 0u);
  EXPECT_EQ(rec1.last_report().skipped_replicated, 0u);
}

// ---------------------------------------------------------------------------
// Repair-traffic pins: the exact work the repair services do on a fixed
// schedule, so that restructuring them can be checked message for message.
// Virtual time is left out: the cost model calibrates it per host.
// ---------------------------------------------------------------------------

TEST(ReplicaRecoveryPin, ROneRepublishesExactlyThePairsWhoseOwnerMoved) {
  auto c = make_cluster(8, 1, 37);
  (void)populate(*c, 1);
  services::ShardRecovery recovery(*c);
  const std::vector<bool> prev(c->num_nodes(), true);
  c->fault().crash(node_id(3));
  (void)c->detect();

  std::set<std::pair<ContentHash, std::uint32_t>> moved;
  for (std::uint32_t n = 0; n < c->num_nodes(); ++n) {
    if (!c->membership().is_alive(node_id(n))) continue;
    c->daemon(node_id(n)).block_map().for_each(
        [&](const ContentHash& h, const std::vector<mem::BlockLocation>& locs) {
          if (c->placement().owner_in(prev, h) == c->placement().owner(h)) return;
          for (const mem::BlockLocation& loc : locs) {
            if (c->registry().alive(loc.entity)) moved.emplace(h, raw(loc.entity));
          }
        });
  }
  ASSERT_FALSE(moved.empty());
  EXPECT_EQ(recovery.last_report().republished, moved.size());
}

/// Crashes `victims` at R = 2, then detect -> restart -> detect x2 -> audit
/// to convergence. Returns one row per detection window (recovery and
/// resync report fields), one audit row, and (type, msgs, bytes) for every
/// message type sent.
std::vector<std::vector<std::uint64_t>> r2_repair_cycle(std::uint64_t seed,
                                                        const std::vector<NodeId>& victims) {
  auto c = make_cluster(8, 2, seed);
  (void)populate(*c, 1);
  services::ShardRecovery recovery(*c);
  services::ReplicaResync resync(*c);

  std::vector<std::vector<std::uint64_t>> got;
  auto window = [&]() {
    (void)c->detect();
    const services::RecoveryReport& r = recovery.last_report();
    const services::ResyncReport& s = resync.last_report();
    got.push_back({r.epoch, r.hashes_checked, r.republished, r.skipped_replicated, s.epoch,
                   s.shards_examined, s.shards_synced, s.records_streamed, s.no_donor});
  };
  for (const NodeId v : victims) c->fault().crash(v);
  window();
  for (const NodeId v : victims) c->fault().restart(v);
  window();
  window();
  services::DhtAudit audit(*c);
  const services::AuditReport a = audit.run_to_convergence();
  got.push_back({a.entries_checked, a.missing_repaired, a.stale_removed, a.misplaced_removed,
                 a.under_replicated, a.over_replicated, a.corrupt_quarantined});
  for (std::size_t t = 0; t < net::kNumMsgTypes; ++t) {
    const std::string label(net::to_string(static_cast<net::MsgType>(t)));
    const std::uint64_t msgs = c->metrics().counter_total("net", "type_msgs." + label);
    if (msgs != 0) {
      got.push_back({t, msgs, c->metrics().counter_total("net", "type_bytes." + label)});
    }
  }
  return got;
}

TEST(ReplicaRecoveryPin, RTwoSingleCrashIsAllDonorStreams) {
  const std::vector<std::vector<std::uint64_t>> want = {
      {1, 77, 0, 10, 1, 2, 2, 12, 0},  {2, 89, 0, 12, 2, 2, 2, 12, 0},
      {2, 89, 0, 12, 2, 2, 2, 12, 0},  {546, 0, 0, 12, 0, 12, 0},
      {2, 50, 6486},  {11, 100, 11920},  {12, 504, 37800},  {14, 4, 796}};
  EXPECT_EQ(r2_repair_cycle(38, {node_id(3)}), want);
}

TEST(ReplicaRecoveryPin, RTwoAdjacentCrashesFallBackToRepublish) {
  // Nodes 3 and 4 together form home 3's whole group: no donor survives.
  const std::vector<std::vector<std::uint64_t>> want = {
      {1, 65, 6, 12, 1, 2, 2, 17, 0},  {2, 89, 7, 17, 2, 2, 2, 17, 0},
      {2, 89, 7, 17, 2, 2, 2, 17, 0},  {563, 0, 0, 29, 0, 29, 0},
      {2, 65, 7848},  {11, 100, 11920},  {12, 504, 37800},  {14, 4, 1006}};
  EXPECT_EQ(r2_repair_cycle(39, {node_id(3), node_id(4)}), want);
}

// ---------------------------------------------------------------------------
// Resync convergence: loss + a second crash mid-schedule, then audit clean.
// ---------------------------------------------------------------------------

TEST(ReplicaResyncConvergence, LossAndSecondCrashStillConvergeToCleanAudit) {
  auto c = make_cluster(8, 3, 35, /*loss=*/0.05);
  (void)populate(*c, 1);
  services::ShardRecovery recovery(*c);
  services::ReplicaResync resync(*c);

  c->fault().crash(node_id(3));
  (void)c->detect();             // first resync runs (lossy, may miss chunks)
  c->fault().crash(node_id(6));  // second failure while state is still settling
  (void)c->detect();
  c->fault().heal_all();
  (void)c->detect();
  (void)c->detect();

  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence();  // repairs accumulate under 5% loss
  EXPECT_TRUE(audit.run().clean());  // and converge: one more pass is clean
  // The clean pass released every dirty marker on every audited daemon.
  for (std::uint32_t n = 0; n < c->num_nodes(); ++n) {
    EXPECT_TRUE(c->daemon(node_id(n)).dirty_shards().empty()) << "node " << n;
  }
}

TEST(ReplicaAudit, FaultFreeRunAtRThreeIsCleanWithBalancedReplication) {
  auto c = make_cluster(6, 3, 36);
  (void)populate(*c, 1);
  services::DhtAudit audit(*c);
  const services::AuditReport r = audit.run();
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.under_replicated, 0u);
  EXPECT_EQ(r.over_replicated, 0u);
}

// ---------------------------------------------------------------------------
// R = 1 byte-identity: the replication machinery must be invisible — same
// metric bytes, same causal trace, same virtual clock — at any sim_workers
// count; a ReplicaResync service constructed at R = 1 adds only its own
// dht/resync_* cells, each reading zero.
// ---------------------------------------------------------------------------

struct RunFingerprint {
  std::string metrics;
  std::string csv;
  std::string trace;
  sim::Time now = 0;
};

RunFingerprint r1_fingerprint(std::size_t workers, bool with_resync) {
  core::ClusterParams p;
  p.num_nodes = 6;
  p.max_entities = 64;
  p.seed = 909;
  p.dht_replication = 1;
  p.fabric.loss_rate = 0.05;
  p.trace_propagation = true;
  p.sim_workers = workers;
  auto c = std::make_unique<core::Cluster>(p);
  std::unique_ptr<services::ReplicaResync> resync;
  if (with_resync) resync = std::make_unique<services::ReplicaResync>(*c);
  const auto ids = populate(*c, 1, 24);
  for (int round = 0; round < 4; ++round) {
    for (const EntityId id : ids) {
      workload::mutate(c->entity(id), 0.5,
                       static_cast<std::uint64_t>(round) * 131 + raw(id));
    }
    if (round == 1) c->fault().crash(node_id(2));
    if (round == 2) c->fault().heal_all();
    (void)c->scan_all();
    (void)c->detect();
  }
  return RunFingerprint{c->metrics().to_json(), c->metrics().to_csv(),
                        c->tracer().to_chrome_json(), c->sim().now()};
}

TEST(ReplicaByteIdentity, ROneRunsIdenticalAcrossWorkersAndWithResyncAttached) {
  const RunFingerprint base = r1_fingerprint(1, /*with_resync=*/false);
  EXPECT_GT(base.now, 0u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunFingerprint f = r1_fingerprint(workers, /*with_resync=*/false);
    EXPECT_EQ(base.metrics, f.metrics) << workers << " workers";
    EXPECT_EQ(base.trace, f.trace) << workers << " workers";
    EXPECT_EQ(base.now, f.now) << workers << " workers";
  }
  // A ReplicaResync constructed at R = 1 is a pure no-op: no traffic, no
  // clock movement, and its own cells count nothing. Every other row of the
  // snapshot is unchanged.
  const RunFingerprint with = r1_fingerprint(1, /*with_resync=*/true);
  std::istringstream rows(with.csv);
  std::string others;
  std::size_t resync_rows = 0;
  for (std::string row; std::getline(rows, row);) {
    if (row.rfind("counter,dht,resync_", 0) == 0) {
      ++resync_rows;
      EXPECT_EQ(row.substr(row.find(",-1,")), ",-1,0,,,,") << row;
      continue;
    }
    others += row + '\n';
  }
  EXPECT_EQ(resync_rows, 3u) << "resync_runs, resync_shards, resync_records";
  EXPECT_EQ(base.csv, others);
  EXPECT_EQ(base.trace, with.trace);
  EXPECT_EQ(base.now, with.now);
}

}  // namespace
}  // namespace concord
