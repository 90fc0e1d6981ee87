// Tests for the DHT audit/repair service: the database converges to ground
// truth after loss, departures, and manual corruption.
#include <gtest/gtest.h>

#include <memory>

#include "services/dht_audit.hpp"
#include "workload/workloads.hpp"

namespace concord::services {
namespace {

constexpr std::size_t kBlk = 256;

std::unique_ptr<core::Cluster> make_cluster(double loss, std::uint64_t seed = 3) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 16;
  p.fabric.loss_rate = loss;
  p.seed = seed;
  return std::make_unique<core::Cluster>(p);
}

/// True iff every (hash, entity) pair in every block map is present in the
/// owning shard, and every shard entry is substantiated by a block map.
bool dht_matches_ground_truth(core::Cluster& c) {
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    bool match = true;
    c.daemon(node_id(n)).block_map().for_each(
        [&](const ContentHash& h, const std::vector<mem::BlockLocation>& locs) {
          for (const mem::BlockLocation& loc : locs) {
            const NodeId owner = c.placement().owner(h);
            if (!c.daemon(owner).store().contains(h, loc.entity)) match = false;
          }
        });
    if (!match) return false;

    bool stale_free = true;
    c.daemon(node_id(n)).store().for_each_entry(
        [&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
          for (std::size_t w = 0; w < nwords; ++w) {
            std::uint64_t bits = words[w];
            while (bits != 0) {
              const auto idx = static_cast<std::uint32_t>(
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
              bits &= bits - 1;
              const auto e = entity_id(idx);
              if (!c.registry().alive(e)) {
                stale_free = false;
                continue;
              }
              const auto* locs =
                  c.daemon(c.registry().host_of(e)).block_map().find(h);
              bool found = false;
              if (locs != nullptr) {
                for (const auto& loc : *locs) {
                  if (loc.entity == e) found = true;
                }
              }
              if (!found) stale_free = false;
            }
          }
        });
    if (!stale_free) return false;
  }
  return true;
}

TEST(DhtAudit, CleanDatabaseNeedsNoRepair) {
  auto c = make_cluster(0.0);
  for (std::uint32_t n = 0; n < 4; ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 24, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n + 1));
  }
  (void)c->scan_all();

  DhtAudit audit(*c);
  const AuditReport r = audit.run();
  EXPECT_EQ(r.missing_repaired, 0u);
  EXPECT_EQ(r.stale_removed, 0u);
  EXPECT_GT(r.entries_checked, 0u);
}

TEST(DhtAudit, RepairsLossInducedGaps) {
  auto c = make_cluster(0.4, 5);
  for (std::uint32_t n = 0; n < 4; ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 32, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 10));
  }
  (void)c->scan_all();  // many updates lost
  ASSERT_FALSE(dht_matches_ground_truth(*c));

  // Drop the loss (the network recovered) and audit to convergence.
  c->fabric().set_loss_rate(0.0);
  DhtAudit audit(*c);
  const AuditReport r = audit.run_to_convergence();
  EXPECT_GT(r.missing_repaired, 0u);
  EXPECT_TRUE(dht_matches_ground_truth(*c));
}

TEST(DhtAudit, ConvergesEvenWhileRepairsAreLossy) {
  auto c = make_cluster(0.3, 6);
  for (std::uint32_t n = 0; n < 4; ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 32, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 20));
  }
  (void)c->scan_all();

  // Repairs themselves ride lossy datagrams; repeated passes still converge
  // with overwhelming probability.
  DhtAudit audit(*c);
  (void)audit.run_to_convergence(16);
  EXPECT_TRUE(dht_matches_ground_truth(*c));
}

TEST(DhtAudit, ScrubsEntriesOfDepartedEntities) {
  auto c = make_cluster(0.0, 7);
  mem::MemoryEntity& a = c->create_entity(node_id(0), EntityKind::kProcess, 16, kBlk);
  mem::MemoryEntity& b = c->create_entity(node_id(1), EntityKind::kProcess, 16, kBlk);
  workload::fill(a, workload::defaults_for(workload::Kind::kRandom, 1));
  workload::fill(b, workload::defaults_for(workload::Kind::kRandom, 2));
  (void)c->scan_all();

  // Depart b as if every departure scrub datagram was lost: the local NSM
  // state goes away (that part is node-local and cannot be lost), but the
  // DHT keeps advertising b.
  c->daemon(node_id(1)).monitor().detach(b.id());
  c->registry().deregister(b.id());
  ASSERT_FALSE(dht_matches_ground_truth(*c));

  DhtAudit audit(*c);
  const AuditReport r = audit.run_to_convergence();
  EXPECT_GT(r.stale_removed, 0u);
  EXPECT_TRUE(dht_matches_ground_truth(*c));
}

TEST(DhtAudit, RemovesManuallyCorruptedEntries) {
  auto c = make_cluster(0.0, 8);
  mem::MemoryEntity& e = c->create_entity(node_id(0), EntityKind::kProcess, 8, kBlk);
  workload::fill(e, workload::defaults_for(workload::Kind::kRandom, 9));
  (void)c->scan_all();

  // Inject a fabricated entry: a hash no entity holds.
  const ContentHash bogus{0xbad, 0xf00d};
  c->daemon(c->placement().owner(bogus)).store().insert(bogus, e.id());
  ASSERT_FALSE(dht_matches_ground_truth(*c));

  DhtAudit audit(*c);
  const AuditReport r = audit.run();
  EXPECT_GE(r.stale_removed, 1u);
  EXPECT_TRUE(dht_matches_ground_truth(*c));
}

TEST(DhtAudit, CheckDatagramsAreSilentSinks) {
  // The check batches an audit sends to each shard owner (kControl) model
  // wire volume only: they arrive, but no daemon treats them as unhandled.
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 16;
  p.dht_replication = 2;
  p.seed = 12;
  core::Cluster c(p);
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e = c.create_entity(node_id(n), EntityKind::kProcess, 16, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, 40 + n));
  }
  (void)c.scan_all();
  c.fault().crash(node_id(2));
  (void)c.detect();
  c.fault().restart(node_id(2));
  (void)c.detect();
  const AuditReport r = DhtAudit(c).run_to_convergence();
  EXPECT_GT(r.missing_repaired, 0u) << "the restarted node's wiped shards needed repair";
  EXPECT_GT(c.metrics().counter_total("net", "type_bytes.control"), 0u)
      << "the audit sent its check batches";
  EXPECT_EQ(c.metrics().counter_total("core", "unhandled_msgs"), 0u);
}

}  // namespace
}  // namespace concord::services
