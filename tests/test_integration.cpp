// Integration tests: the full ConCORD lifecycle across a multi-node cluster
// — boot, scan, query, service command, checkpoint, churn, re-checkpoint,
// migration, reconstruction.
#include <gtest/gtest.h>

#include <memory>

#include "query/queries.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/migration.hpp"
#include "services/raw_checkpoint.hpp"
#include "services/reconstruction.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

constexpr std::size_t kBlk = 512;

std::vector<std::byte> snapshot(const mem::MemoryEntity& e) {
  std::vector<std::byte> out;
  for (BlockIndex b = 0; b < e.num_blocks(); ++b) {
    out.insert(out.end(), e.block(b).begin(), e.block(b).end());
  }
  return out;
}

TEST(Integration, FullLifecycle) {
  core::ClusterParams p;
  p.num_nodes = 8;
  p.max_entities = 64;
  p.seed = 2014;
  p.fabric.loss_rate = 0.05;  // a slightly lossy site, as in real life
  core::Cluster cluster(p);

  // One MPI-rank-like process per node running a Moldy-like image.
  std::vector<EntityId> ranks;
  for (std::uint32_t n = 0; n < 8; ++n) {
    mem::MemoryEntity& e = cluster.create_entity(node_id(n), EntityKind::kProcess, 48, kBlk);
    auto wp = workload::defaults_for(workload::Kind::kMoldy, 100);
    wp.pool_pages = 96;
    workload::fill(e, wp);
    ranks.push_back(e.id());
  }

  // Boot: initial full scan populates the distributed database.
  const mem::ScanStats scan1 = cluster.scan_all();
  EXPECT_EQ(scan1.blocks_hashed, 8u * 48u);

  // Queries report considerable redundancy.
  query::QueryEngine queries(cluster);
  const query::SharingAnswer sharing = queries.sharing(node_id(0), ranks);
  EXPECT_GT(sharing.degree_of_sharing(), 0.15);
  EXPECT_GT(sharing.inter_sharing, 0u);

  // Collective checkpoint #1.
  services::CollectiveCheckpointService ckpt1(cluster);
  {
    svc::CommandEngine engine(cluster);
    svc::CommandSpec spec;
    spec.service_entities = ranks;
    spec.config.set("ckpt.dir", "epoch1");
    const svc::CommandStats stats = engine.execute(ckpt1, spec);
    ASSERT_TRUE(ok(stats.status));
    EXPECT_EQ(stats.local_blocks, 8u * 48u);
  }
  const std::vector<std::byte> rank0_at_ckpt1 = snapshot(cluster.entity(ranks[0]));

  // Application progresses: memory churns, monitors keep up.
  for (const EntityId r : ranks) workload::mutate(cluster.entity(r), 0.25, 9000 + raw(r));
  (void)cluster.scan_all();

  // Collective checkpoint #2 is correct despite churn + loss.
  services::CollectiveCheckpointService ckpt2(cluster);
  {
    svc::CommandEngine engine(cluster);
    svc::CommandSpec spec;
    spec.service_entities = ranks;
    spec.config.set("ckpt.dir", "epoch2");
    const svc::CommandStats stats = engine.execute(ckpt2, spec);
    ASSERT_TRUE(ok(stats.status));
  }
  for (const EntityId r : ranks) {
    const auto mem = services::restore_entity(cluster.fs(), ckpt2.se_path(r),
                                              ckpt2.shared_path());
    ASSERT_TRUE(mem.has_value());
    EXPECT_EQ(mem.value(), snapshot(cluster.entity(r)));
  }

  // Reconstruct rank 0's *first* checkpoint as a fresh entity — its old
  // image must come back even though live memory has moved on.
  services::ReconstructionStats rstats;
  services::VmReconstruction recon(cluster);
  const auto rebuilt =
      recon.reconstruct(ckpt1.se_path(ranks[0]), ckpt1.shared_path(), node_id(7), rstats);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(snapshot(cluster.entity(rebuilt.value())), rank0_at_ckpt1);

  // Finally migrate rank 1 to node 7, leveraging whatever content already
  // lives there (the reconstructed image shares its pool pages).
  (void)cluster.scan_all();
  const std::vector<std::byte> rank1_mem = snapshot(cluster.entity(ranks[1]));
  services::CollectiveMigration mig(cluster);
  const services::MigrationPlanItem item{ranks[1], node_id(7)};
  const services::MigrationStats mstats = mig.migrate(std::span(&item, 1));
  ASSERT_TRUE(ok(mstats.status));
  EXPECT_EQ(snapshot(cluster.entity(mstats.new_ids[0])), rank1_mem);
  EXPECT_GT(mstats.blocks_reconstructed, 0u);  // shared pool pages found locally
  EXPECT_LT(mstats.wire_bytes, rank1_mem.size());
}

TEST(Integration, ThrottledMonitorsEventuallyConverge) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 16;
  core::Cluster cluster(p);
  std::vector<EntityId> ids;
  for (std::uint32_t n = 0; n < 4; ++n) {
    mem::MemoryEntity& e = cluster.create_entity(node_id(n), EntityKind::kProcess, 64, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 50));
    cluster.daemon(node_id(n)).monitor().set_update_budget(20);
    ids.push_back(e.id());
  }

  // 64 blocks at 20 updates/epoch needs 4 epochs to converge.
  std::size_t epochs = 0;
  while (cluster.total_unique_hashes() < 4 * 64 && epochs < 10) {
    (void)cluster.scan_all();
    ++epochs;
  }
  EXPECT_EQ(cluster.total_unique_hashes(), 4u * 64u);
  EXPECT_GE(epochs, 3u);
}

}  // namespace
}  // namespace concord
